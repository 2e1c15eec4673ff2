// Package holdcsim is the module root, in scope like the rest.
package holdcsim

import "os"

var home = os.Getenv("HOME") // want "os.Getenv in model package"
