package cliutil

import (
	"math/big"
	"testing"
)

func TestParsePoints(t *testing.T) {
	got, err := ParsePoints(" 3, 4,5 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Errorf("ParsePoints = %v", got)
	}
	if _, err := ParsePoints(""); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ParsePoints("3,x"); err == nil {
		t.Error("non-numeric accepted")
	}
}

func TestParseBigCountDecimal(t *testing.T) {
	got, err := ParseBigCount("1146617856000")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "1146617856000" {
		t.Errorf("got %s", got)
	}
}

func TestParseBigCountExponent(t *testing.T) {
	got, err := ParseBigCount("1e30")
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(big.NewInt(10), big.NewInt(30), nil)
	if got.Cmp(want) != 0 {
		t.Errorf("1e30 parsed as %s", got)
	}
	got25, err := ParseBigCount("25e3")
	if err != nil || got25.Int64() != 25000 {
		t.Errorf("25e3 = %v, %v", got25, err)
	}
}

func TestParseBigCountErrors(t *testing.T) {
	for _, s := range []string{"", "abc", "1e-3", "xe3", "1ex"} {
		if _, err := ParseBigCount(s); err == nil {
			t.Errorf("%q accepted", s)
		}
	}
}

// ParseShard must reject anything but a complete "k/K" — trailing garbage
// silently accepted (the old fmt.Sscanf behavior) would select the wrong
// slice: krongen would generate it and kronvalidate would check it.
func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		k, total int
		ok       bool
	}{
		{"0/4", 0, 4, true},
		{"3/4", 3, 4, true},
		{"0/1", 0, 1, true},
		{"4/4", 0, 0, false},
		{"-1/4", 0, 0, false},
		{"0/0", 0, 0, false},
		{"0/-2", 0, 0, false},
		{"1", 0, 0, false},
		{"", 0, 0, false},
		{"a/4", 0, 0, false},
		{"1/2junk", 0, 0, false},
		{"1/2/8", 0, 0, false},
		{"1x/2", 0, 0, false},
		{"1 /2", 0, 0, false},
	} {
		k, total, err := ParseShard(tc.spec)
		if tc.ok {
			if err != nil {
				t.Errorf("ParseShard(%q): unexpected error %v", tc.spec, err)
			} else if k != tc.k || total != tc.total {
				t.Errorf("ParseShard(%q) = %d/%d, want %d/%d", tc.spec, k, total, tc.k, tc.total)
			}
		} else if err == nil {
			t.Errorf("ParseShard(%q) accepted as %d/%d", tc.spec, k, total)
		}
	}
}
