package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadOutages(t *testing.T) {
	in := `# outage log
0.5 1.0 server 3

2.0 0.25 rack 0   # trailing comment is NOT allowed mid-line; this is a field
`
	// The last line has 6 fields, so it must be rejected.
	if _, err := ReadOutages(strings.NewReader(in)); err == nil {
		t.Fatal("accepted a 6-field line")
	}
	in = "# outage log\n0.5 1.0 server 3\n\n2.0 0.25 rack 0\n5 0 switch 1\n"
	outs, err := ReadOutages(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Outage{
		{Start: 0.5, Dur: 1.0, Scope: "server", Target: 3},
		{Start: 2.0, Dur: 0.25, Scope: "rack", Target: 0},
		{Start: 5, Dur: 0, Scope: "switch", Target: 1},
	}
	if len(outs) != len(want) {
		t.Fatalf("got %d outages, want %d", len(outs), len(want))
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Errorf("outage %d = %+v, want %+v", i, outs[i], want[i])
		}
	}
}

func TestReadOutagesRejects(t *testing.T) {
	bad := []string{
		"0 1 server",                 // 3 fields
		"0 1 server 1 extra",         // 5 fields
		"x 1 server 0",               // unparsable start
		"0 y server 0",               // unparsable dur
		"NaN 1 server 0",             // non-finite
		"0 Inf server 0",             // non-finite
		"-1 1 server 0",              // negative start
		"0 -1 server 0",              // negative dur
		"0 1 datacenter 0",           // unknown scope
		"0 1 server -2",              // negative target
		"0 1 server 1.5",             // non-integer target
		"5 1 server 0\n1 1 server 0", // decreasing starts
	}
	for _, in := range bad {
		if outs, err := ReadOutages(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q -> %v", in, outs)
		}
	}
}

func TestReadOutagesCap(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		b.WriteString("1 1 server 0\n")
	}
	if outs, err := ReadOutagesCapped(strings.NewReader(b.String()), 4); err == nil {
		t.Errorf("cap 4 accepted %d events", len(outs))
	}
	if outs, err := ReadOutagesCapped(strings.NewReader(b.String()), 5); err != nil || len(outs) != 5 {
		t.Errorf("cap 5: %v, %d events", err, len(outs))
	}
}

func TestWriteOutagesRoundTrip(t *testing.T) {
	outs := []Outage{
		{Start: 0.123456, Dur: 2, Scope: "pod", Target: 1},
		{Start: 3.5, Dur: 0.000001, Scope: "server", Target: 42},
	}
	var buf bytes.Buffer
	if err := WriteOutages(&buf, outs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOutages(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(outs) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(outs))
	}
	for i := range outs {
		if got[i] != outs[i] {
			t.Errorf("round trip %d = %+v, want %+v", i, got[i], outs[i])
		}
	}
	// Write must be a fixed point: re-emitting the parsed log is
	// byte-identical.
	var buf2 bytes.Buffer
	if err := WriteOutages(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("write not a fixed point:\n%q\n%q", buf.Bytes(), buf2.Bytes())
	}
}

// FuzzOutageLog pins the external-input contract of the outage-log
// reader: arbitrary bytes either fail cleanly or parse into events that
// survive a Write/Read round trip unchanged. Mirrors FuzzTraceRead.
func FuzzOutageLog(f *testing.F) {
	f.Add([]byte("0.5 1.0 server 3\n2.0 0.25 rack 0\n"))
	f.Add([]byte("# comment\n\n1 0 switch 0\n"))
	f.Add([]byte("0 1 pod -1\n"))
	f.Add([]byte("1e300 1e300 server 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		outs, err := ReadOutagesCapped(bytes.NewReader(data), 10_000)
		if err != nil {
			return // rejected cleanly
		}
		for i, o := range outs {
			if o.Start < 0 || o.Dur < 0 || o.Target < 0 {
				t.Fatalf("event %d out of range: %+v", i, o)
			}
			if i > 0 && o.Start < outs[i-1].Start {
				t.Fatalf("event %d start %g before previous %g", i, o.Start, outs[i-1].Start)
			}
		}
		var buf bytes.Buffer
		if err := WriteOutages(&buf, outs); err != nil {
			t.Fatal(err)
		}
		got, err := ReadOutages(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written log failed: %v\n%q", err, buf.Bytes())
		}
		if len(got) != len(outs) {
			t.Fatalf("round trip: %d events, want %d", len(got), len(outs))
		}
		for i := range outs {
			if got[i].Scope != outs[i].Scope || got[i].Target != outs[i].Target {
				t.Fatalf("round trip %d = %+v, want %+v", i, got[i], outs[i])
			}
		}
	})
}
