package network

import "holdcsim/internal/enum"

// NetModel selects how packet-granularity transfers are simulated.
//
// ModelPacket is the store-and-forward model: every MTU unit is its own
// chain of serialize/propagate/forward events, so per-hop queueing,
// buffer overflows and LPI wake penalties are exact — at a per-packet
// event cost. ModelFluid folds a packet transfer into one max-min fair
// flow through the existing waterfill machinery (one arrival and one
// departure event regardless of size) while still billing the packet
// counters (PacketsSent/Delivered/Dropped) so the conservation laws and
// Stats stay comparable across models. DESIGN.md "Network models"
// documents when the two agree exactly and when only within tolerance.
type NetModel int

// Network models. The zero value is the packet model, so existing
// configurations and scenario files are unchanged.
const (
	ModelPacket NetModel = iota
	ModelFluid
)

var netModelNames = []string{ModelPacket: "packet", ModelFluid: "fluid"}

// String implements fmt.Stringer.
func (m NetModel) String() string { return enum.String(m, netModelNames, "NetModel") }

// Valid reports whether m is a named model.
func (m NetModel) Valid() bool { return enum.Valid(m, netModelNames) }

// MarshalText implements encoding.TextMarshaler (scenario-file codec).
func (m NetModel) MarshalText() ([]byte, error) { return enum.Marshal(m, netModelNames, "net model") }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *NetModel) UnmarshalText(b []byte) error {
	return enum.Unmarshal(b, m, netModelNames, "net model")
}
