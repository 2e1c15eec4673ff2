package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteOutages emits an outage log in the format ReadOutages parses,
// with 6-digit time precision.
func WriteOutages(w io.Writer, outs []Outage) error {
	bw := bufio.NewWriter(w)
	for _, o := range outs {
		if _, err := fmt.Fprintf(bw, "%.6f %.6f %s %d\n", o.Start, o.Dur, o.Scope, o.Target); err != nil {
			return err
		}
	}
	return bw.Flush()
}
