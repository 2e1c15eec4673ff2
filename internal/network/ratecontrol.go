package network

import (
	"holdcsim/internal/simtime"
)

// RateAdaptationConfig tunes the adaptive link rate controller
// (Gunaratne et al. [25], paper Sec. III-B): each window, every switch
// port's utilization is compared against thresholds and its rate steps
// down (to save power, PortRateScale) or up (to serve demand).
type RateAdaptationConfig struct {
	Window   simtime.Time
	LowUtil  float64 // below this, step the rate down
	HighUtil float64 // above this, step the rate up
}

// DefaultRateAdaptation returns the standard controller setting: 10 ms
// windows, step down below 10% utilization, step up above 60%.
func DefaultRateAdaptation() RateAdaptationConfig {
	return RateAdaptationConfig{
		Window:   10 * simtime.Millisecond,
		LowUtil:  0.10,
		HighUtil: 0.60,
	}
}

// EnableRateAdaptation starts the periodic adaptive-link-rate controller.
// Rate changes re-run the flow water-filling so fluid flows see the new
// capacities immediately; in-flight packet serializations keep the rate
// they started with.
func (n *Network) EnableRateAdaptation(cfg RateAdaptationConfig) {
	if cfg.Window <= 0 {
		cfg = DefaultRateAdaptation()
	}
	n.eng.Every(n.eng.Now()+cfg.Window, cfg.Window, simtime.Forever, func() {
		changed := false
		for _, sw := range n.swList {
			rates := sw.prof.LinkRatesBps
			if len(rates) < 2 {
				continue
			}
			for _, p := range sw.ports {
				if p.link == nil {
					continue
				}
				cap := p.currentRateBps() / 8 * cfg.Window.Seconds()
				util := float64(p.bytesSent) / cap
				p.bytesSent = 0
				// A port with active users must not step down mid-burst.
				switch {
				case util > cfg.HighUtil && p.rateIdx < len(rates)-1:
					p.setRateIdx(p.rateIdx + 1)
					changed = true
				case util < cfg.LowUtil && p.users == 0 && p.rateIdx > 0:
					p.setRateIdx(p.rateIdx - 1)
					changed = true
				}
			}
			if changed {
				sw.recompute()
			}
		}
		if changed && len(n.flows) > 0 {
			n.recomputeFlowRates()
		}
	})
}
