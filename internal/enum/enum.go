// Package enum gives an integer enumeration its text forms from one name
// table: a slice of names indexed by the enum's value. String, the
// scenario-file codec (MarshalText, UnmarshalText) and every label that
// spells a value out read that table, so each name is written once.
package enum

import (
	"fmt"
	"slices"
	"sort"
)

// Name reports v's entry in names, or false outside the table.
func Name[E ~int](v E, names []string) (string, bool) {
	if v < 0 || int(v) >= len(names) {
		return "", false
	}
	return names[v], true
}

// Valid reports whether v has a name in the table.
func Valid[E ~int](v E, names []string) bool {
	_, ok := Name(v, names)
	return ok
}

// String is v's name, or typ(v) outside the table.
func String[E ~int](v E, names []string, typ string) string {
	if s, ok := Name(v, names); ok {
		return s
	}
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

// Marshal is MarshalText by the table; a value outside it is an error.
func Marshal[E ~int](v E, names []string, what string) ([]byte, error) {
	if s, ok := Name(v, names); ok {
		return []byte(s), nil
	}
	return nil, fmt.Errorf("unknown %s %d", what, int(v))
}

// Unmarshal is UnmarshalText by the table; an unknown word is an error
// that lists the words the table holds.
func Unmarshal[E ~int](b []byte, v *E, names []string, what string) error {
	if k := slices.Index(names, string(b)); k >= 0 {
		*v = E(k)
		return nil
	}
	sorted := slices.Clone(names)
	sort.Strings(sorted)
	return fmt.Errorf("unknown %s %q (want one of %v)", what, b, sorted)
}
