package simtime

import (
	"math"
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
		{math.MinInt64, "-9223372036854775808ns"},
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
		tt := Time(ns % (1000 * int64(3600*Second)))
		if tt < 0 {
			tt = -tt
		}
		return FromSeconds(tt.Seconds()) == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSecondsStopsAtTheClocksEnd(t *testing.T) {
	for _, tc := range []struct {
		t    Time
		s    float64
		want Time
	}{
		{0, 1.5, 1500 * Millisecond},
		{Second, 2e9, Second + FromSeconds(2e9)},
		{0, 9.3e9, Forever},                       // FromSeconds would wrap negative
		{5e18, 5e9, Forever},                      // each fits, the sum does not
		{Forever - Second, 1, Forever},            // lands on Forever itself
		{Forever - 2*Second, 1, Forever - Second}, // the last seconds still count
		{Forever, 0, Forever},
		{0, math.NaN(), Forever},
		{0, math.Inf(1), Forever},
	} {
		if got := AddSeconds(tc.t, tc.s); got != tc.want {
			t.Errorf("AddSeconds(%d, %g) = %d, want %d", int64(tc.t), tc.s, int64(got), int64(tc.want))
		}
	}
}
