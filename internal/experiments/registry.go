package experiments

import (
	"fmt"

	"holdcsim/internal/fault"
	"holdcsim/internal/runner"
)

// Experiment is one registry entry: everything cmd/experiments and the
// golden suites know about an experiment.
type Experiment struct {
	// Name is the -exp value and the golden file's stem.
	Name string
	// Run executes the Default (or Quick) preset under the given
	// run-control settings.
	Run func(quick bool, exec runner.Options, check bool, faults *fault.Spec) (*Report, error)
}

// Registry declares every experiment, once: each a table or figure of
// the paper, its Quick output pinned under testdata/golden. It is sorted
// by name, the order "-exp all" prints.
var Registry = []Experiment{
	paper("fig11", DefaultFig11, QuickFig11, Fig11, (*Fig11Result).report),      // joint server/network optimization (Sec. IV-D)
	paper("fig12", DefaultFig12, QuickFig12, Fig12, (*Fig12Result).report),      // server power validation vs reference model (Sec. V-A)
	paper("fig13", DefaultFig13, QuickFig13, Fig13, (*Fig13Result).report),      // switch power validation (Sec. V-B), with Fig. 14's segments
	paper("fig4", DefaultFig4, QuickFig4, Fig4, (*Fig4Result).report),           // dynamic resource provisioning time series (Sec. IV-A)
	paper("fig5", DefaultFig5, QuickFig5, Fig5, (*Fig5Result).report),           // single delay-timer energy sweep (Sec. IV-B)
	paper("fig6", DefaultFig6, QuickFig6, Fig6, (*Fig6Result).report),           // dual delay-timer energy reduction (Sec. IV-B)
	paper("fig8", DefaultFig8, QuickFig8, Fig8, (*Fig8Result).report),           // adaptive-pool state residency vs utilization (Sec. IV-C)
	paper("fig9", DefaultFig9, QuickFig9, Fig9, (*Fig9Result).report),           // per-server energy, timer vs adaptive (Sec. IV-C)
	paper("table1", DefaultTableI, QuickTableI, TableI, (*TableIResult).report), // capability matrix + >20K-server scalability check
}

// params is a paper experiment's *Params: a pointer whose embedded
// Common the registry can reach.
type params[P any] interface {
	*P
	common() *Common
}

// paper declares one of the paper's experiments from its two presets,
// its entry point and its result's report.
func paper[P any, PP params[P], R any](name string, def, quick func() P,
	run func(P) (R, error), report func(R) *Report) Experiment {
	return Experiment{Name: name,
		Run: func(q bool, exec runner.Options, check bool, faults *fault.Spec) (*Report, error) {
			p := def()
			if q {
				p = quick()
			}
			c := PP(&p).common()
			c.Exec, c.Check, c.Faults = exec, check, faults
			r, err := run(p)
			if err != nil {
				return nil, err
			}
			return report(r), nil
		}}
}

// Report is what one experiment run hands back, as two renderings
// declared side by side: the deterministic one the golden files hold
// and the one the CLI shows. A table in both is the same *Table, so a
// golden file's table section is what -out writes.
type Report struct {
	// Pinned is the golden files' part of the output, byte-identical
	// at any worker count.
	Pinned []Part
	// Shown is what cmd/experiments prints (or, for tables under
	// -out, writes), in order. It may carry what no golden pins, such
	// as a summary line or the engine's counters.
	Shown []Part
}

// Part is a named table or a line of text.
type Part struct {
	// Name is a table's file stem under -out ("fig11a").
	Name  string
	Table *Table
	// Line is the content when Table is nil.
	Line string
	// FileOnly marks a Shown table too long for a terminal: written
	// under -out, never printed.
	FileOnly bool
}

func linef(format string, a ...any) Part { return Part{Line: fmt.Sprintf(format, a...)} }
