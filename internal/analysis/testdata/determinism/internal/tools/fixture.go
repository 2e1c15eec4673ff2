// Package tools is outside the model-package set: the determinism
// contract does not govern it, so wall clocks and global randomness are
// legal here.
package tools

import (
	"math/rand"
	"time"
)

func unconstrained() int64 {
	return time.Now().UnixNano() + int64(rand.Intn(4))
}
