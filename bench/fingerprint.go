package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// fingerprint names the machine and toolchain a results file was
// measured on. Host times from different fingerprints are not
// comparable, and -compare refuses to try. Commit identifies the code,
// not the machine, so it is recorded but not compared.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readFingerprint() fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}

// sameMachine compares everything but the commit.
func (f fingerprint) sameMachine(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return f == o
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}

// gitCommit is HEAD's hash, "-dirty" when the tree differs from it, and
// "unknown" outside a git checkout (the benchmark driver's, for one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}
