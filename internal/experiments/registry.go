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
	// Paper marks the paper's own tables and figures: "-exp all" runs
	// them and testdata/golden pins their Quick output. Anything else
	// runs by name only.
	Paper bool
	// Run executes the Default (or Quick) preset under the given
	// run-control settings.
	Run func(quick bool, exec runner.Options, check bool, faults *fault.Spec) (*Report, error)
}

// Registry declares every experiment, once. It is sorted by name — the
// order "-exp all" prints — with the by-name-only entries last.
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
	// Beyond the paper: the 1M-server row (DESIGN.md Sec. 13) costs
	// minutes and several GB at full size. It takes no replications
	// and no faults.
	{Name: "hyperscale", Run: func(quick bool, _ runner.Options, check bool, _ *fault.Spec) (*Report, error) {
		p := DefaultHyperscale()
		if quick {
			p = QuickHyperscale()
		}
		p.Check = check
		r, err := Hyperscale(p)
		if err != nil {
			return nil, err
		}
		return &Report{Shown: []Part{{Line: r.Summary()}}}, nil
	}},
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
	return Experiment{Name: name, Paper: true,
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
	// Pinned is the determinism contract's part of the output: no
	// wall-clock figure, byte-identical at any worker count.
	Pinned []Part
	// Shown is what cmd/experiments prints (or, for tables under
	// -out, writes), in order. It may carry wall-clock figures.
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
