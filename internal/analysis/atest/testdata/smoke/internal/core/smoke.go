// Package core is the harness's own smoke fixture: one finding, one
// want.
package core

import "time"

var when = time.Now() // want "time.Now in model package"
