// Package experiments regenerates every table and figure of the paper's
// evaluation (Secs. IV and V). Registry (registry.go) is the index: one
// line per experiment, naming its presets, its entry point and how its
// result reports. Each entry point is a pure function of its parameter
// struct; Default presets match the paper's setup and Quick presets
// shrink durations for tests while preserving each experiment's
// qualitative shape.
package experiments

import (
	"fmt"
	"strings"

	"holdcsim/internal/core"
	"holdcsim/internal/fault"
	"holdcsim/internal/runner"
)

// Common is the run-control block every paper experiment's Params
// embeds; the rest of a Params struct is the model.
type Common struct {
	// Seed is the base seed; replication and sweep-point seeds derive
	// from it (runner.RepSeed).
	Seed uint64
	// Exec controls campaign parallelism and replications; the zero
	// value runs every sweep point once on GOMAXPROCS workers.
	Exec runner.Options
	// Check enables runtime invariant checking on every simulation
	// (internal/invariant): a violated conservation law fails the run.
	Check bool
	// Faults optionally attaches the fault injector (internal/fault)
	// to every simulation in the experiment. Nil leaves the fault
	// machinery unwired; a non-nil empty spec attaches an empty
	// timeline (the differential fault suite's probe).
	Faults *fault.Spec
}

func (c *Common) common() *Common { return c }

// build constructs one simulation of the experiment: cfg under the
// given run seed with the block's Check and Faults applied. Figures
// that hook samplers or traffic between build and run call it directly.
func (c *Common) build(seed uint64, cfg core.Config) (*core.DataCenter, error) {
	cfg.Seed, cfg.Check, cfg.Faults = seed, c.Check, c.Faults
	return core.Build(cfg)
}

// run is build followed by Run.
func (c *Common) run(seed uint64, cfg core.Config) (*core.Results, error) {
	dc, err := c.build(seed, cfg)
	if err != nil {
		return nil, err
	}
	return dc.Run()
}

// Table is a generic result grid: a header row plus data rows, printable
// as the tab-separated series the paper's plots are drawn from.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row formatted from values (numbers use %.6g).
func (t *Table) Addf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.6g", x)
		case string:
			cells[i] = x
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.Add(cells...)
}

// String renders the table as TSV with a title and header line.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	b.WriteString(strings.Join(t.Header, "\t"))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}
