// Scenario file codec: the serialization layer that turns Scenario and
// Axes into files `cmd/scenario` (and anything else) can validate,
// expand and run — the paper's claim that one holistic simulator can
// replay externally recorded configurations, not just its figure
// presets.
//
// Format (DESIGN.md Sec. 10): JSON with comments. `//` line and
// `/* */` block comments are stripped outside string literals before
// strict decoding — unknown fields are rejected, trailing input is
// rejected, and every decoded scenario must pass Validate, so a typo'd
// field name or an illegal composition fails loudly at load time
// instead of silently running the wrong experiment. Encode emits
// canonical indented JSON (stable field order, round-trip float
// precision), and Decode(Encode(s)) == s for every Validate-passing
// scenario (TestCodecRoundTrip*, FuzzDecode).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
)

// ---------------------------------------------------------------------
// Enum text forms
// ---------------------------------------------------------------------

// Every scenario enum has one name table, a slice indexed by the enum's
// value: the codec marshals through it (short lowercase names, so files
// stay diff-able and hand-writable) and the labels that spell a kind out
// read the same table.
func enumName[E ~int](v E, names []string) (string, bool) {
	if v < 0 || int(v) >= len(names) {
		return "", false
	}
	return names[v], true
}

func marshalEnum[E ~int](v E, names []string, what string) ([]byte, error) {
	if s, ok := enumName(v, names); ok {
		return []byte(s), nil
	}
	return nil, fmt.Errorf("scenario: unknown %s %v", what, v)
}

func unmarshalEnum[E ~int](b []byte, v *E, names []string, what string) error {
	if k := slices.Index(names, string(b)); k >= 0 {
		*v = E(k)
		return nil
	}
	sorted := slices.Clone(names)
	sort.Strings(sorted)
	return fmt.Errorf("scenario: unknown %s %q (want one of %v)", what, b, sorted)
}

var topoKindNames = []string{
	TopoNone:          "none",
	TopoStar:          "star",
	TopoFatTree:       "fattree",
	TopoBCube:         "bcube",
	TopoCamCube:       "camcube",
	TopoFlatButterfly: "flatbfly",
}

// MarshalText implements encoding.TextMarshaler.
func (k TopoKind) MarshalText() ([]byte, error) {
	return marshalEnum(k, topoKindNames, "topology kind")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *TopoKind) UnmarshalText(b []byte) error {
	return unmarshalEnum(b, k, topoKindNames, "topology kind")
}

var arrivalKindNames = []string{
	ArrPoisson:    "poisson",
	ArrMMPP:       "mmpp",
	ArrTraceWiki:  "wiki",
	ArrTraceNLANR: "nlanr",
	ArrTraceFile:  "trace-file",
}

// MarshalText implements encoding.TextMarshaler.
func (k ArrivalKind) MarshalText() ([]byte, error) {
	return marshalEnum(k, arrivalKindNames, "arrival kind")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *ArrivalKind) UnmarshalText(b []byte) error {
	return unmarshalEnum(b, k, arrivalKindNames, "arrival kind")
}

var factoryKindNames = []string{
	FacSingle:        "single",
	FacTwoTier:       "twotier",
	FacScatterGather: "scatter",
	FacRandomDAG:     "dag",
}

// MarshalText implements encoding.TextMarshaler.
func (k FactoryKind) MarshalText() ([]byte, error) {
	return marshalEnum(k, factoryKindNames, "factory kind")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *FactoryKind) UnmarshalText(b []byte) error {
	return unmarshalEnum(b, k, factoryKindNames, "factory kind")
}

var serviceKindNames = []string{
	SvcWebSearch:  "websearch",
	SvcWebServing: "webserving",
	SvcWikipedia:  "wikipedia",
}

// MarshalText implements encoding.TextMarshaler.
func (s ServiceKind) MarshalText() ([]byte, error) {
	return marshalEnum(s, serviceKindNames, "service kind")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *ServiceKind) UnmarshalText(b []byte) error {
	return unmarshalEnum(b, s, serviceKindNames, "service kind")
}

var placerKindNames = []string{
	PlLeastLoaded:  "leastloaded",
	PlRoundRobin:   "roundrobin",
	PlPackFirst:    "packfirst",
	PlRandom:       "random",
	PlNetworkAware: "netaware",
	PlAdaptivePool: "adaptive",
	PlProvisioner:  "provisioner",
	PlDualTimer:    "dualtimer",
}

// MarshalText implements encoding.TextMarshaler.
func (k PlacerKind) MarshalText() ([]byte, error) {
	return marshalEnum(k, placerKindNames, "placer kind")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *PlacerKind) UnmarshalText(b []byte) error {
	return unmarshalEnum(b, k, placerKindNames, "placer kind")
}

var profileKindNames = []string{
	ProfFourCore:   "4core",
	ProfXeon10:     "xeon10",
	ProfDualSocket: "dual20",
}

// MarshalText implements encoding.TextMarshaler.
func (p ProfileKind) MarshalText() ([]byte, error) {
	return marshalEnum(p, profileKindNames, "server profile")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *ProfileKind) UnmarshalText(b []byte) error {
	return unmarshalEnum(b, p, profileKindNames, "server profile")
}

// ---------------------------------------------------------------------
// Comment stripping (the JSONC front end)
// ---------------------------------------------------------------------

// StripComments removes `//` line comments and `/* */` block comments
// outside string literals, replacing them with spaces so the JSON the
// decoder sees keeps its shape. An unterminated block comment is an
// error; an unterminated string is passed through for the JSON decoder
// to reject with its own (better) message.
func StripComments(in []byte) ([]byte, error) {
	out := make([]byte, 0, len(in))
	for i := 0; i < len(in); {
		c := in[i]
		switch {
		case c == '"':
			// Copy the string literal verbatim, honoring escapes.
			out = append(out, c)
			i++
			for i < len(in) {
				out = append(out, in[i])
				if in[i] == '\\' && i+1 < len(in) {
					out = append(out, in[i+1])
					i += 2
					continue
				}
				if in[i] == '"' {
					i++
					break
				}
				i++
			}
		case c == '/' && i+1 < len(in) && in[i+1] == '/':
			for i < len(in) && in[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(in) && in[i+1] == '*':
			end := bytes.Index(in[i+2:], []byte("*/"))
			if end < 0 {
				return nil, fmt.Errorf("scenario: unterminated /* comment")
			}
			// Preserve line structure inside the comment so decoder
			// error offsets stay meaningful.
			for _, b := range in[i : i+2+end+2] {
				if b == '\n' {
					out = append(out, '\n')
				} else {
					out = append(out, ' ')
				}
			}
			i += 2 + end + 2
		default:
			out = append(out, c)
			i++
		}
	}
	return out, nil
}

// strictUnmarshal decodes comment-stripped JSON into v, rejecting
// unknown fields and trailing input.
func strictUnmarshal(data []byte, v any) error {
	clean, err := StripComments(data)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(clean))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("scenario: trailing input after the document")
	}
	return nil
}

// ---------------------------------------------------------------------
// Scenario codec
// ---------------------------------------------------------------------

// Encode renders s as canonical indented JSON, newline-terminated. The
// scenario is validated first: only legal configurations get a file
// form, so every encoded file decodes again (Decode(Encode(s)) == s).
func Encode(s Scenario) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses one scenario from JSON (comments allowed), rejecting
// unknown fields, and validates the result: a scenario that decodes is
// a scenario that runs.
func Decode(data []byte) (Scenario, error) {
	var s Scenario
	if err := strictUnmarshal(data, &s); err != nil {
		return Scenario{}, err
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// ResolveTraceFiles returns s with its relative arrival and outage
// trace paths joined onto dir — the directory of the file s was decoded
// from — so a scenario file and its recorded traces travel as a pair.
// Take the scenario's label before resolving: labels (and the
// replication seeds derived from them) must not depend on where the
// file sits.
func (s Scenario) ResolveTraceFiles(dir string) Scenario {
	if tf := s.Arrival.TraceFile; tf != "" && !filepath.IsAbs(tf) {
		s.Arrival.TraceFile = filepath.Join(dir, tf)
	}
	if tf := s.Faults.TraceFile; tf != "" && !filepath.IsAbs(tf) {
		s.Faults.TraceFile = filepath.Join(dir, tf)
	}
	return s
}

// ---------------------------------------------------------------------
// Matrix codec
// ---------------------------------------------------------------------

// Matrix is the file form of a whole campaign: a base scenario plus the
// axes to cross-product over it. The base alone need not validate —
// axes may supply the missing pieces (a horizon, a utilization) — but
// the expansion must yield at least one valid scenario.
type Matrix struct {
	Base Scenario `json:"base"`
	Axes Axes     `json:"axes"`
}

// Expand produces the matrix's valid cross product (Axes.Expand).
func (m Matrix) Expand() []Scenario { return m.Axes.Expand(m.Base) }

// EncodeMatrix renders m as canonical indented JSON, newline-terminated.
func EncodeMatrix(m Matrix) ([]byte, error) {
	if len(m.Expand()) == 0 {
		return nil, fmt.Errorf("scenario: matrix expands to zero valid scenarios")
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode matrix: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeMatrix parses a campaign matrix file (comments allowed, unknown
// fields rejected) and requires a non-empty valid expansion.
func DecodeMatrix(data []byte) (Matrix, error) {
	var m Matrix
	if err := strictUnmarshal(data, &m); err != nil {
		return Matrix{}, err
	}
	if len(m.Expand()) == 0 {
		return Matrix{}, fmt.Errorf("scenario: matrix expands to zero valid scenarios")
	}
	return m, nil
}

// DecodeAny sniffs whether data holds a single scenario or a matrix
// (top-level "base"/"axes" keys) and returns the scenarios either way —
// one for a scenario file, the valid expansion for a matrix file.
func DecodeAny(data []byte) (scenarios []Scenario, isMatrix bool, err error) {
	clean, err := StripComments(data)
	if err != nil {
		return nil, false, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(clean, &probe); err != nil {
		return nil, false, fmt.Errorf("scenario: %w", err)
	}
	_, hasBase := probe["base"]
	_, hasAxes := probe["axes"]
	if hasBase || hasAxes {
		m, err := DecodeMatrix(data)
		if err != nil {
			return nil, true, err
		}
		return m.Expand(), true, nil
	}
	s, err := Decode(data)
	if err != nil {
		return nil, false, err
	}
	return []Scenario{s}, false, nil
}
