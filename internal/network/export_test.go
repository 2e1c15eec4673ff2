package network

import "holdcsim/internal/power"

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
