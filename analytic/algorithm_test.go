package analytic

import (
	"strings"
	"testing"
)

// TestAlgorithmStringParseRoundTrip: every algorithm's paper name parses
// back to itself, case-insensitively.
func TestAlgorithmStringParseRoundTrip(t *testing.T) {
	for _, a := range Algorithms {
		name := a.String()
		got, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if got != a {
			t.Errorf("Parse(%q) = %v, want %v", name, got, a)
		}
		if got, err := Parse(strings.ToLower(name)); err != nil || got != a {
			t.Errorf("Parse(%q) = %v, %v; want %v", strings.ToLower(name), got, err, a)
		}
	}
}

// TestParseUnknownListsValidNames: the error for a bad name enumerates
// every valid algorithm so callers can self-correct.
func TestParseUnknownListsValidNames(t *testing.T) {
	_, err := Parse("LAZYCOPY")
	if err == nil {
		t.Fatal("Parse of unknown name succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"LAZYCOPY"`) {
		t.Errorf("error %q does not quote the bad name", msg)
	}
	for _, a := range Algorithms {
		if !strings.Contains(msg, a.String()) {
			t.Errorf("error %q does not list %v", msg, a)
		}
	}
}

// TestParseAlgorithm pins the one algorithm enumeration: each paper name
// and the value it is logged as. The engine writes uint8(a) into every
// begin-checkpoint record, so the values are part of the on-disk format.
// Adding a ninth algorithm must extend this table deliberately, not
// silently.
func TestParseAlgorithm(t *testing.T) {
	names := []struct {
		name   string
		want   Algorithm
		logged uint8
	}{
		{"FUZZYCOPY", FuzzyCopy, 1},
		{"FASTFUZZY", FastFuzzy, 2},
		{"2CFLUSH", TwoColorFlush, 3},
		{"2CCOPY", TwoColorCopy, 4},
		{"COUFLUSH", COUFlush, 5},
		{"COUCOPY", COUCopy, 6},
		{"ZIGZAG", Zigzag, 7},
		{"HOURGLASS", Hourglass, 8},
	}
	if len(names) != len(Algorithms) {
		t.Fatalf("name table has %d entries but Algorithms lists %d; extend the table", len(names), len(Algorithms))
	}
	for i, c := range names {
		got, err := Parse(c.name)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %v, %v, want %v", c.name, got, err, c.want)
		}
		if got.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.want, got.String(), c.name)
		}
		if uint8(got) != c.logged {
			t.Errorf("%s is logged as %d, want %d", c.name, uint8(got), c.logged)
		}
		if Algorithms[i] != c.want {
			t.Errorf("Algorithms[%d] = %v, want %v", i, Algorithms[i], c.want)
		}
		if !got.Valid() {
			t.Errorf("%s not Valid", c.name)
		}
	}
	for _, bad := range []Algorithm{0, Hourglass + 1} {
		if bad.Valid() {
			t.Errorf("Algorithm(%d) Valid", int(bad))
		}
	}
	if _, err := Parse("couflush"); err != nil {
		t.Errorf("case-insensitive parse failed: %v", err)
	}
}
