package enum

import (
	"strings"
	"testing"
)

type kind int

var kindNames = []string{"b", "a"}

func TestNameTable(t *testing.T) {
	for k, want := range map[kind]string{0: "b", 1: "a", 2: "kind(2)", -1: "kind(-1)"} {
		if s := String(k, kindNames, "kind"); s != want {
			t.Errorf("String(%d) = %q, want %q", k, s, want)
		}
		inTable := k == 0 || k == 1
		if Valid(k, kindNames) != inTable {
			t.Errorf("Valid(%d) = %v", k, !inTable)
		}
		b, err := Marshal(k, kindNames, "kind")
		if inTable != (err == nil) || inTable && string(b) != want {
			t.Errorf("Marshal(%d) = %q, %v", k, b, err)
		}
	}
	var k kind
	if err := Unmarshal([]byte("a"), &k, kindNames, "kind"); err != nil || k != 1 {
		t.Errorf("Unmarshal(a) = %d, %v", k, err)
	}
	err := Unmarshal([]byte("c"), &k, kindNames, "kind")
	if err == nil || !strings.Contains(err.Error(), `unknown kind "c" (want one of [a b])`) {
		t.Errorf("Unmarshal(c) = %v", err)
	}
	if kindNames[0] != "b" {
		t.Error("Unmarshal sorted the table in place")
	}
}
