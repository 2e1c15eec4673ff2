package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// runAgainst is the A/B mode: it checks ref out into a temporary git
// worktree, copies this tree's bench/ over it so both sides run
// identical benchmark code, builds both binaries, and runs interleaved
// pairs — alternating which side goes first — on the same generated
// inputs. It claims nothing beyond what it prints: each side's median
// and quartiles, and the share of pairs the new side won.
func runAgainst(ref string, selected []*benchWorkload, seed uint64, quick bool, pairs int, outDir string, stdout io.Writer) error {
	if pairs < 10 {
		return fmt.Errorf("-against needs at least 10 pairs, have %d", pairs)
	}
	benchDir, err := os.Getwd() // go run -C bench puts us here
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(benchDir, "against.go")); err != nil {
		return fmt.Errorf("-against must run from the bench directory (go run -C bench .): %w", err)
	}
	tmp, err := os.MkdirTemp("", "holdcsim-against-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// The worktree lives outside the user's tree; only .git/worktrees
	// gains (and loses again) an entry.
	oldTree := filepath.Join(tmp, "old")
	if err := command(benchDir, "git", "worktree", "add", "--detach", oldTree, ref); err != nil {
		return err
	}
	defer command(benchDir, "git", "worktree", "remove", "--force", oldTree)
	if err := os.RemoveAll(filepath.Join(oldTree, "bench")); err != nil {
		return err
	}
	if err := copyTree(benchDir, filepath.Join(oldTree, "bench")); err != nil {
		return err
	}

	oldBin, newBin := filepath.Join(tmp, "bench-old"), filepath.Join(tmp, "bench-new")
	if err := command(filepath.Join(oldTree, "bench"), "go", "build", "-o", oldBin, "."); err != nil {
		return err
	}
	if err := command(benchDir, "go", "build", "-o", newBin, "."); err != nil {
		return err
	}
	sides := [2]launcher{childProcess(oldBin), childProcess(newBin)}

	inputs, err := writeInputs(filepath.Join(outDir, "inputs"), selected, seed, quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "A = %s, B = this tree; %d interleaved pairs per workload, seed %d\n", ref, pairs, seed)
	for _, w := range selected {
		var recs [2][]record
		for i := -1; i < pairs; i++ { // pair -1 is the discarded warm-up
			for _, side := range [2]int{(i + 2) % 2, (i + 3) % 2} {
				rec, err := sides[side].run(w, inputs[w.name], "")
				if err != nil {
					return err
				}
				if i >= 0 {
					recs[side] = append(recs[side], rec)
				}
			}
		}
		if a, b := recs[0][0].Digest, recs[1][0].Digest; a != b {
			fmt.Fprintf(stdout, "%-10s sim digest DIFFERS: A %s  B %s — the sides do not simulate the same thing\n", w.name, a, b)
		}
		// Interleaved pairs see the same host speed, so the sides compare as measured.
		sa, sb := endToEndSummaries(recs[0], 1), endToEndSummaries(recs[1], 1)
		for _, m := range endToEnd {
			a, b := sa[m.name], sb[m.name]
			wins, ties := 0, 0
			for i := range a.Samples {
				switch {
				case a.Samples[i] == b.Samples[i]:
					ties++
				case (b.Samples[i] < a.Samples[i]) == (m.better == "lower"):
					wins++
				}
			}
			v, ratio := verdict(m, a, b)
			fmt.Fprintf(stdout, "%-10s %-15s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g] %s  B/A %.3f  B wins %d/%d (ties %d)  %s\n",
				w.name, m.name, a.Median, a.Q1, a.Q3, b.Median, b.Q1, b.Q3, m.unit, ratio, wins, pairs-ties, ties, v)
		}
	}
	return nil
}

// command runs a tool in dir with its output on stderr.
func command(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w", name, args, err)
	}
	return nil
}

// copyTree copies the regular files under src to dst, skipping out/.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "out" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
