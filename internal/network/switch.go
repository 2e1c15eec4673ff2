package network

import (
	"fmt"

	"holdcsim/internal/engine"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/topology"
)

// Switch residency labels. SwitchStateDown is the fault model's
// addition: a dead switch draws nothing until revived.
const (
	SwitchStateActive = "Active"
	SwitchStateWake   = "Wake-up"
	SwitchStateSleep  = "Sleep"
	SwitchStateDown   = "Down"
)

// Switch models one switching element: chassis + line cards + ports,
// with automatic line-card sleep and per-port LPI (paper Sec. III-B,
// Fig. 3).
type Switch struct {
	net  *Network
	node topology.NodeID
	prof *power.SwitchProfile

	lineCards []*LineCard
	ports     []*Port
	allocated int // ports handed out to links

	sleeping  bool
	waking    bool
	failed    bool // dead (fault model): 0 W, no traffic, no transitions
	wakeUntil simtime.Time
	wakeEv    engine.Handle
	sleepTmr  *engine.Timer

	meter     *stats.EnergyMeter
	residency *stats.Residency

	wakeCount int64

	// Memo for the active-state wattage sum, keyed by the packed
	// line-card/port state vector. stateVec is maintained incrementally
	// by the setPortState/setRateIdx/setLCState helpers — every state
	// write goes through them — so a memo probe is one field read. The
	// cached entries hold results this switch's own summation loop
	// produced for identical inputs, so hits are bit-identical to
	// recomputation (the profile is immutable after construction).
	// memoOK is false when the vector doesn't fit the 64-bit key; the
	// loop then runs every time.
	memoOK   bool
	stateVec uint64
	memoN    int
	memoNext int
	memoKey  [wattsMemoSlots]uint64
	memoW    [wattsMemoSlots]float64
}

// wattsMemoSlots bounds the per-switch memo: LPI churn cycles through a
// handful of vectors, so a tiny ring with linear scan is enough.
const wattsMemoSlots = 8

func newSwitch(n *Network, node topology.NodeID, prof *power.SwitchProfile) *Switch {
	sw := &Switch{
		net:       n,
		node:      node,
		prof:      prof,
		meter:     stats.NewEnergyMeter(fmt.Sprintf("switch%d", node)),
		residency: stats.NewResidency(fmt.Sprintf("switch%d", node)),
	}
	for lc := 0; lc < prof.LineCards; lc++ {
		for p := 0; p < prof.PortsPerLineCard; p++ {
			sw.ports = append(sw.ports, &Port{sw: sw, idx: lc*prof.PortsPerLineCard + p,
				state: power.PortActive, rateIdx: len(prof.LinkRatesBps) - 1})
		}
		sw.lineCards = append(sw.lineCards, &LineCard{sw: sw, idx: lc, state: power.LineCardActive})
	}
	sw.sleepTmr = engine.NewTimer(n.eng, sw.enterSleep)
	// 11 ports x 5 bits (2 state + 3 rateIdx+1) + 4 line cards x 2 bits
	// fills 63 of the key's 64 bits. Larger switches skip the memo.
	sw.memoOK = len(sw.lineCards) <= 4 && len(sw.ports) <= 11 &&
		len(prof.LinkRatesBps) <= 7
	sw.stateVec = sw.buildStateVec()
	return sw
}

// allocPort hands the next unused port to a link.
func (s *Switch) allocPort(l *linkState) *Port {
	p := s.ports[s.allocated]
	s.allocated++
	p.link = l
	return p
}

// Node reports the topology node this switch occupies.
func (s *Switch) Node() topology.NodeID { return s.node }

// Failed reports whether the switch is dead (fault model).
func (s *Switch) Failed() bool { return s.failed }

// WakeCount reports how many sleep->active transitions occurred.
func (s *Switch) WakeCount() int64 { return s.wakeCount }

// PortStates snapshots all port states (validation logging, Sec. V-B).
func (s *Switch) PortStates() []power.PortState {
	out := make([]power.PortState, len(s.ports))
	for i, p := range s.ports {
		out[i] = p.state
	}
	return out
}

// wake begins (or continues) waking a sleeping switch, returning the
// remaining time until it is usable. Awake switches return 0.
func (s *Switch) wake() simtime.Time {
	now := s.net.eng.Now()
	if s.failed {
		return 0 // dead switches don't wake; traffic drops at their links
	}
	if s.waking {
		return s.wakeUntil - now
	}
	if !s.sleeping {
		return 0
	}
	s.sleeping = false
	s.waking = true
	s.wakeCount++
	s.net.cover.Hit(modelcov.SwitchWake)
	lat := s.prof.LineCardWake.Latency
	s.wakeUntil = now + lat
	s.recompute()
	s.wakeEv = s.net.eng.After(lat, func() {
		s.waking = false
		for _, lc := range s.lineCards {
			lc.setLCState(power.LineCardActive)
		}
		for _, p := range s.ports {
			if p.link != nil {
				p.setPortState(power.PortActive)
				p.link.armLPI()
			}
		}
		s.recompute()
		s.maybeSleepArm()
	})
	return lat
}

// enterSleep puts line cards to sleep and ports off, if still idle.
func (s *Switch) enterSleep() {
	if s.failed || s.sleeping || s.waking || !s.idle() {
		return
	}
	s.sleeping = true
	s.net.cover.Hit(modelcov.SwitchSleep)
	for _, lc := range s.lineCards {
		lc.setLCState(power.LineCardSleep)
	}
	for _, p := range s.ports {
		// The shared link timer is left alone: the partner port may
		// still need its countdown, and a fire against this port is a
		// no-op (enterLPI skips non-Active ports).
		p.setPortState(power.PortOff)
	}
	s.recompute()
}

// idle reports whether no port has users or queued packets.
func (s *Switch) idle() bool {
	for _, p := range s.ports {
		if p.users > 0 {
			return false
		}
		if p.link != nil {
			if p.link.egressAB.busy() || p.link.egressBA.busy() {
				return false
			}
		}
	}
	return true
}

// maybeSleepArm (re)arms the sleep timer when the switch is idle and
// sleep is enabled.
func (s *Switch) maybeSleepArm() {
	if s.net.cfg.SwitchSleepIdle < 0 || s.sleeping || s.waking || s.failed {
		return
	}
	if s.idle() {
		s.sleepTmr.Reset(s.net.cfg.SwitchSleepIdle)
	}
}

// recompute re-derives the switch draw from chassis, line-card and port
// states.
func (s *Switch) recompute() {
	now := s.net.eng.Now()
	w := s.prof.ChassisWatts
	label := SwitchStateActive
	switch {
	case s.failed:
		w = 0
		label = SwitchStateDown
	case s.waking:
		w += float64(s.prof.LineCards) * s.prof.LineCardWake.Watts
		label = SwitchStateWake
	case s.sleeping:
		w += float64(s.prof.LineCards) * s.prof.LineCardSleepW
		label = SwitchStateSleep
	default:
		w = s.activeWatts()
	}
	s.meter.SetPower(now, w)
	s.residency.SetState(now, label)
}

// buildStateVec packs the full line-card and port state vector into one
// uint64: port i occupies bits [5i, 5i+5) as state<<3 | rateIdx+1, line
// card j occupies bits [55+2j, 55+2j+2). Meaningful only when memoOK;
// after construction the vector is maintained incrementally by the
// set* helpers, and this builder serves as the test oracle for them.
func (s *Switch) buildStateVec() uint64 {
	var key uint64
	for _, p := range s.ports {
		key |= (uint64(p.state)<<3 | uint64(p.rateIdx+1)) << (5 * uint(p.idx))
	}
	for _, lc := range s.lineCards {
		key |= uint64(lc.state) << (55 + 2*uint(lc.idx))
	}
	return key
}

// setPortState writes a port power state, keeping the packed vector in
// sync. All p.state writes after construction must go through here.
func (p *Port) setPortState(st power.PortState) {
	p.sw.stateVec ^= (uint64(p.state) ^ uint64(st)) << (5*uint(p.idx) + 3)
	p.state = st
}

// setRateIdx writes a port ALR rate index, keeping the packed vector
// and the link's cached capacity in sync. All p.rateIdx writes after
// construction must go through here.
func (p *Port) setRateIdx(idx int) {
	p.sw.stateVec ^= (uint64(p.rateIdx+1) ^ uint64(idx+1)) << (5 * uint(p.idx))
	p.rateIdx = idx
	if p.link != nil {
		p.link.refreshRate()
	}
}

// setLCState writes a line-card power state, keeping the packed vector
// in sync. All lc.state writes after construction must go through here.
func (lc *LineCard) setLCState(st power.LineCardState) {
	lc.sw.stateVec ^= (uint64(lc.state) ^ uint64(st)) << (55 + 2*uint(lc.idx))
	lc.state = st
}

// activeWatts sums the non-sleeping draw over line cards and ports,
// memoized on the exact state vector. Port LPI churn revisits the same
// few vectors constantly; a memo hit returns the number this very loop
// computed for those inputs before (the profile is immutable after
// construction), so metering stays bit-identical while skipping the
// per-port float walk on the hot path.
func (s *Switch) activeWatts() float64 {
	key := s.stateVec
	if s.memoOK {
		for i := 0; i < s.memoN; i++ {
			if s.memoKey[i] == key {
				return s.memoW[i]
			}
		}
	}
	w := s.prof.ChassisWatts
	for _, lc := range s.lineCards {
		switch lc.state {
		case power.LineCardActive:
			w += s.prof.LineCardActiveW
		case power.LineCardSleep:
			w += s.prof.LineCardSleepW
		}
	}
	for _, p := range s.ports {
		switch p.state {
		case power.PortActive:
			w += s.prof.PortActiveW * s.prof.PortRateScale[p.rateIdx]
		case power.PortLPI:
			w += s.prof.PortLPIW
		}
	}
	if s.memoOK {
		if s.memoN < wattsMemoSlots {
			s.memoKey[s.memoN], s.memoW[s.memoN] = key, w
			s.memoN++
		} else {
			s.memoKey[s.memoNext], s.memoW[s.memoNext] = key, w
			s.memoNext = (s.memoNext + 1) % wattsMemoSlots
		}
	}
	return w
}

// LineCard groups ports; it sleeps as a unit (paper Fig. 3).
type LineCard struct {
	sw    *Switch
	idx   int
	state power.LineCardState
}

// Port is one switch port: its state machine is Active <-> LPI (idle
// threshold / traffic) and Off while the line card sleeps. Adaptive link
// rate selects among the profile's rate points.
type Port struct {
	sw   *Switch
	idx  int
	link *linkState

	state   power.PortState
	users   int
	rateIdx int

	bytesSent int64 // accumulator for the ALR controller window
}

// currentRateBps reports the port's ALR-selected rate.
func (p *Port) currentRateBps() float64 {
	if len(p.sw.prof.LinkRatesBps) == 0 {
		return 1e18 // unconstrained
	}
	return p.sw.prof.LinkRatesBps[p.rateIdx]
}

// addUser registers one traffic unit (flow or in-flight packet),
// reports the wake penalty if the port was in LPI. Callers stop the
// link's shared LPI timer once at the link level before touching either
// port (markActive, maybeSend).
func (p *Port) addUser() simtime.Time {
	p.users++
	var penalty simtime.Time
	if p.state == power.PortLPI {
		penalty = p.sw.prof.PortWake.Latency
		p.sw.net.cover.Hit(modelcov.PortLPIWake)
	}
	if p.state != power.PortActive {
		p.setPortState(power.PortActive)
		p.sw.recompute()
	}
	return penalty
}

// removeUser releases one traffic unit; markIdle starts the link's LPI
// countdown when the port drains.
func (p *Port) removeUser() {
	if p.users <= 0 {
		panic("network: port user underflow")
	}
	p.users--
	if p.users == 0 {
		p.sw.maybeSleepArm()
	}
}

// enterLPI moves the idle port into Low Power Idle.
func (p *Port) enterLPI() {
	if p.users > 0 || p.state != power.PortActive {
		return
	}
	p.setPortState(power.PortLPI)
	p.sw.net.cover.Hit(modelcov.PortLPIEnter)
	p.sw.recompute()
}
