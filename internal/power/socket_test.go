package power

import "testing"

func TestDualSocketValidation(t *testing.T) {
	p := DualSocketXeon()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Cores = 19 // does not divide by 2 sockets
	if p.Validate() == nil {
		t.Error("indivisible core count accepted")
	}
	p = DualSocketXeon()
	p.Sockets = -1
	if p.Validate() == nil {
		t.Error("negative sockets accepted")
	}
	// Zero sockets means one.
	p = XeonE5_2680()
	if p.SocketCount() != 1 || p.CoresPerSocket() != 10 {
		t.Errorf("default socket count = %d", p.SocketCount())
	}
}
