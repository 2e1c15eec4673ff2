// Package analysis is the one first-party package outside the check's
// scope, the check's own: wall clocks and global randomness are legal
// here.
package analysis

import (
	"math/rand"
	"time"
)

func unconstrained() int64 {
	return time.Now().UnixNano() + int64(rand.Intn(4))
}
