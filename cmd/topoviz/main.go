// Command topoviz inspects HolDCSim topologies: it builds one of the
// supported architectures (paper Sec. III-B, Fig. 10) and prints its
// structure, degree distribution, and hop-count profile.
//
// Usage:
//
//	topoviz -topo fattree -k 4
//	topoviz -topo bcube -n 4 -k 1
//	topoviz -topo camcube -x 3 -y 3 -z 3
//	topoviz -topo flatbutterfly -rows 2 -cols 4 -c 2
//	topoviz -topo star -hosts 24
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"holdcsim/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topoviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topo := fs.String("topo", "fattree", "fattree|star|bcube|camcube|flatbutterfly")
	k := fs.Int("k", 4, "fat-tree arity / BCube level count")
	n := fs.Int("n", 4, "BCube switch port count")
	hosts := fs.Int("hosts", 24, "star host count")
	x := fs.Int("x", 3, "CamCube X")
	y := fs.Int("y", 3, "CamCube Y")
	z := fs.Int("z", 3, "CamCube Z")
	rows := fs.Int("rows", 2, "flattened butterfly rows")
	cols := fs.Int("cols", 4, "flattened butterfly cols")
	conc := fs.Int("c", 2, "flattened butterfly hosts per router")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var t topology.Topology
	switch *topo {
	case "fattree":
		t = topology.FatTree{K: *k}
	case "star":
		t = topology.Star{Hosts: *hosts}
	case "bcube":
		t = topology.BCube{N: *n, K: *k}
	case "camcube":
		t = topology.CamCube{X: *x, Y: *y, Z: *z}
	case "flatbutterfly":
		t = topology.FlattenedButterfly{Rows: *rows, Cols: *cols, Concentration: *conc}
	default:
		fmt.Fprintf(stderr, "topoviz: unknown topology %q\n", *topo)
		return 2
	}
	g, err := t.Build()
	if err != nil {
		fmt.Fprintln(stderr, "topoviz:", err)
		return 1
	}
	if err := g.Validate(); err != nil {
		fmt.Fprintln(stderr, "topoviz: validation:", err)
		return 1
	}

	hostsList := g.Hosts()
	switches := g.Switches()
	fmt.Fprintf(stdout, "topology %s\n", t.Name())
	fmt.Fprintf(stdout, "  nodes:    %d (%d hosts, %d switches)\n", g.NumNodes(), len(hostsList), len(switches))
	fmt.Fprintf(stdout, "  links:    %d\n", g.NumLinks())
	fmt.Fprintf(stdout, "  host transit: %v\n", g.AllowHostTransit)

	// Degree profile.
	degCount := map[int]int{}
	for i := 0; i < g.NumNodes(); i++ {
		degCount[g.Degree(topology.NodeID(i))]++
	}
	fmt.Fprintf(stdout, "  degrees:  ")
	for _, d := range sortedKeys(degCount) {
		fmt.Fprintf(stdout, "%dx deg%d  ", degCount[d], d)
	}
	fmt.Fprintln(stdout)

	// Hop-count profile from host 0 to all other hosts.
	hops := map[int]int{}
	for _, h := range hostsList[1:] {
		hops[g.HopCount(hostsList[0], h)]++
	}
	fmt.Fprintf(stdout, "  hops from host 0: ")
	for _, d := range sortedKeys(hops) {
		fmt.Fprintf(stdout, "%d hosts @ %d hops  ", hops[d], d)
	}
	fmt.Fprintln(stdout)

	// Example path between the two most distant hosts.
	far := hostsList[len(hostsList)-1]
	nodes, _, err := g.Path(hostsList[0], far, 0)
	if err == nil {
		fmt.Fprintf(stdout, "  sample path %d -> %d:", hostsList[0], far)
		for _, nd := range nodes {
			fmt.Fprintf(stdout, " %s", g.Node(nd).Name)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
