// Command demo is in scope like every first-party package outside
// internal/analysis: an example is a run too.
package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now()) // want "time.Now in model package"
}
