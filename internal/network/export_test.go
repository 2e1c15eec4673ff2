package network

import (
	"reflect"

	"holdcsim/internal/power"
	"holdcsim/internal/stats"
)

// ActivePorts counts ports currently in the Active state.
func (s *Switch) ActivePorts() int {
	n := 0
	for _, p := range s.ports {
		if p.state == power.PortActive {
			n++
		}
	}
	return n
}

// NetworkPowerW reports the instantaneous draw of all switches.
func (n *Network) NetworkPowerW() float64 {
	sum := 0.0
	for _, sw := range n.swList {
		sum += watts(sw.meter)
	}
	return sum
}

// watts reads a meter's present draw. Nothing but a test asks for it, so
// the meter has no accessor and the test reads the unexported signal.
func watts(m *stats.EnergyMeter) float64 {
	return reflect.ValueOf(m).Elem().FieldByName("tw").FieldByName("value").Float()
}
