package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Write emits the trace in Read's format, one timestamp per line with
// 6-digit precision: the round-trip tests' writer.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, x := range t.Times {
		if _, err := fmt.Fprintf(bw, "%.6f\n", x); err != nil {
			return err
		}
	}
	return bw.Flush()
}
