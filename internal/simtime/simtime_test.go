package simtime

import (
	"testing"
	"testing/quick"
)

func TestConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", got)
	}
}

func TestFromSecondsRounds(t *testing.T) {
	// 1e-9 seconds is 1ns exactly; 1.4e-9 should round to 1ns.
	if FromSeconds(1.4e-9) != 1 {
		t.Errorf("FromSeconds(1.4e-9) = %v, want 1", FromSeconds(1.4e-9))
	}
	if FromSeconds(1.6e-9) != 2 {
		t.Errorf("FromSeconds(1.6e-9) = %v, want 2", FromSeconds(1.6e-9))
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{1500 * Millisecond, "1.5s"},
		{Forever, "forever"},
		{-2 * Millisecond, "-2ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestMinMaxClamp(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// FromSeconds(t.Seconds()) must be the identity for non-extreme times.
	f := func(ns int64) bool {
		tt := Time(ns % (1000 * int64(Hour)))
		if tt < 0 {
			tt = -tt
		}
		return FromSeconds(tt.Seconds()) == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
