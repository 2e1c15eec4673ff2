package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStateStrings(t *testing.T) {
	if C0.String() != "C0" || C6.String() != "C6" || CState(9).String() != "C(9)" {
		t.Error("CState.String broken")
	}
	if PC0.String() != "PC0" || PC6.String() != "PC6" || PkgCState(9).String() != "PC(9)" {
		t.Error("PkgCState.String broken")
	}
	if S0.String() != "S0" || S3.String() != "S3" || S5.String() != "S5" || SState(9).String() != "S(9)" {
		t.Error("SState.String broken")
	}
	if PortActive.String() != "Active" || PortLPI.String() != "LPI" || PortOff.String() != "Off" {
		t.Error("PortState.String broken")
	}
	if LineCardActive.String() != "Active" || LineCardSleep.String() != "Sleep" || LineCardOff.String() != "Off" {
		t.Error("LineCardState.String broken")
	}
	if PortState(9).String() != "Port(9)" || LineCardState(9).String() != "LineCard(9)" {
		t.Error("unknown state formatting broken")
	}
}

func TestXeonProfileValid(t *testing.T) {
	p := XeonE5_2680()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Cores != 10 {
		t.Errorf("Cores = %d", p.Cores)
	}
	// The RAPL-equivalent CPU package span should be roughly 5-30 W,
	// matching the Fig. 12 validation range.
	cpuIdle := float64(p.Cores)*p.CoreC6 + p.PkgPC6
	cpuBusy := float64(p.Cores)*p.CoreActive + p.PkgPC0
	if cpuIdle > 5 || cpuBusy < 20 || cpuBusy > 40 {
		t.Errorf("CPU package span %v..%v W outside Fig.12-like range", cpuIdle, cpuBusy)
	}
}

func TestFourCoreProfileValid(t *testing.T) {
	p := FourCoreServer()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Cores != 4 {
		t.Errorf("Cores = %d", p.Cores)
	}
	// One socket: S3 draw < every core idle in C0 < every core busy.
	sleep := p.DRAMSelfRefresh + p.PlatformS3
	idle := float64(p.Cores)*p.CoreIdle + p.PkgPC0 + p.DRAMIdle + p.PlatformS0
	peak := float64(p.Cores)*p.CoreActive + p.PkgPC0 + p.DRAMActive + p.PlatformS0
	if sleep >= idle || idle >= peak {
		t.Errorf("power ordering broken: sleep=%v idle=%v max=%v", sleep, idle, peak)
	}
}

func TestProfileValidationRejects(t *testing.T) {
	p := XeonE5_2680()
	p.Cores = 0
	if p.Validate() == nil {
		t.Error("zero cores accepted")
	}

	p = XeonE5_2680()
	p.CoreC6 = p.CoreC3 + 1 // non-monotone
	if p.Validate() == nil {
		t.Error("non-monotone C-state draws accepted")
	}

	p = XeonE5_2680()
	p.PkgPC6 = p.PkgPC2 + 1
	if p.Validate() == nil {
		t.Error("non-monotone package draws accepted")
	}

	p = XeonE5_2680()
	p.WakeS3.Latency = -1
	if p.Validate() == nil {
		t.Error("negative wake latency accepted")
	}

	p = XeonE5_2680()
	p.PStates = nil
	if p.Validate() == nil {
		t.Error("missing P-states accepted")
	}

	p = XeonE5_2680()
	p.PStates = []PState{{Name: "bad", Speed: 0, PowerScale: 1}}
	if p.Validate() == nil {
		t.Error("zero-speed P-state accepted")
	}
}

func TestCoreWatts(t *testing.T) {
	p := XeonE5_2680()
	nominal := p.PStates[0]
	if got := p.CoreWatts(C0, true, nominal); got != p.CoreActive {
		t.Errorf("busy C0 = %v", got)
	}
	if got := p.CoreWatts(C0, false, nominal); got != p.CoreIdle {
		t.Errorf("idle C0 = %v", got)
	}
	if got := p.CoreWatts(C6, false, nominal); got != p.CoreC6 {
		t.Errorf("C6 = %v", got)
	}
	// DVFS scaling: P3 at 0.55 speed should draw 0.55^3 of active power.
	p3 := p.PStates[3]
	want := p.CoreActive * math.Pow(0.55, 3)
	if got := p.CoreWatts(C0, true, p3); math.Abs(got-want) > 1e-9 {
		t.Errorf("P3 busy = %v, want %v", got, want)
	}
}

func TestPkgWatts(t *testing.T) {
	p := XeonE5_2680()
	if p.PkgWatts(PC0) != p.PkgPC0 || p.PkgWatts(PC2) != p.PkgPC2 || p.PkgWatts(PC6) != p.PkgPC6 {
		t.Error("PkgWatts mapping broken")
	}
}

func TestDefaultPStatesCubic(t *testing.T) {
	ps := DefaultPStates()
	if len(ps) != 4 || ps[0].Speed != 1.0 || ps[0].PowerScale != 1.0 {
		t.Fatalf("P-states = %+v", ps)
	}
	for _, s := range ps {
		want := s.Speed * s.Speed * s.Speed
		if math.Abs(s.PowerScale-want) > 1e-12 {
			t.Errorf("%s: PowerScale = %v, want cubic %v", s.Name, s.PowerScale, want)
		}
	}
}

func TestCisco2960Profile(t *testing.T) {
	p := Cisco2960_24()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Ports() != 24 {
		t.Errorf("Ports = %d", p.Ports())
	}
	// Paper: base power 14.7 W (chassis + line card, zero active ports).
	base := p.ChassisWatts + p.LineCardActiveW
	if math.Abs(base-14.7) > 1e-9 {
		t.Errorf("base = %v, want 14.7", base)
	}
	if p.PortActiveW != 0.23 {
		t.Errorf("per-port = %v, want 0.23", p.PortActiveW)
	}
	// All 24 ports active: 14.7 + 24*0.23 = 20.22 W.
	peak := p.ChassisWatts + float64(p.LineCards)*p.LineCardActiveW + float64(p.Ports())*p.PortActiveW
	if math.Abs(peak-20.22) > 1e-9 {
		t.Errorf("peak draw = %v, want 20.22", peak)
	}
}

func TestDataCenter10G(t *testing.T) {
	p := DataCenter10G(8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Ports() != 8 {
		t.Errorf("Ports = %d", p.Ports())
	}
	// Zero/negative defaults to 48 ports.
	if DataCenter10G(0).Ports() != 48 {
		t.Error("default port count broken")
	}
}

func TestSwitchValidationRejects(t *testing.T) {
	p := Cisco2960_24()
	p.LineCards = 0
	if p.Validate() == nil {
		t.Error("zero line cards accepted")
	}

	p = Cisco2960_24()
	p.PortLPIW = p.PortActiveW + 1
	if p.Validate() == nil {
		t.Error("LPI > active accepted")
	}

	p = Cisco2960_24()
	p.LinkRatesBps = []float64{1e9, 1e8} // descending
	p.PortRateScale = []float64{1, 1}
	if p.Validate() == nil {
		t.Error("descending link rates accepted")
	}

	p = Cisco2960_24()
	p.LinkRatesBps = []float64{1e9}
	p.PortRateScale = []float64{1, 1}
	if p.Validate() == nil {
		t.Error("mismatched rate tables accepted")
	}
}

// Property: for any valid profile, deeper states never draw more power.
func TestDeeperStatesCheaperProperty(t *testing.T) {
	f := func(coreScale, pkgScale uint8) bool {
		p := XeonE5_2680()
		scale := 1 + float64(coreScale)/64
		p.CoreActive *= scale
		p.CoreIdle *= scale
		p.CoreC1 *= scale
		p.CoreC3 *= scale
		p.CoreC6 *= scale
		pscale := 1 + float64(pkgScale)/64
		p.PkgPC0 *= pscale
		p.PkgPC2 *= pscale
		p.PkgPC6 *= pscale
		if err := p.Validate(); err != nil {
			return false
		}
		ps := p.PStates[0]
		return p.CoreWatts(C0, false, ps) >= p.CoreWatts(C1, false, ps) &&
			p.CoreWatts(C1, false, ps) >= p.CoreWatts(C3, false, ps) &&
			p.CoreWatts(C3, false, ps) >= p.CoreWatts(C6, false, ps) &&
			p.PkgWatts(PC0) >= p.PkgWatts(PC2) && p.PkgWatts(PC2) >= p.PkgWatts(PC6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
