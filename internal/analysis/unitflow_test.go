package analysis

import "testing"

func TestUnitflowFixture(t *testing.T) { checkFixture(t, Unitflow, "unitflow") }

// TestUnitcheckFixture runs unitflow over the suffix-visible fixture:
// every mismatch readable straight off identifier suffixes must fire,
// including in initialisers, function literals and case expressions.
func TestUnitcheckFixture(t *testing.T) { checkFixture(t, Unitflow, "unitcheck") }

func TestSuffixUnit(t *testing.T) {
	cases := []struct {
		name string
		want string // expected suffix, "" for no unit
	}{
		{"tempC", "C"},
		{"MaxTempC", "C"},
		{"tempK", "K"},
		{"dtS", "S"},
		{"dtMS", "MS"},
		{"TotalNS", "NS"},
		{"AvgPlossW", "W"},
		{"FreqGHz", "GHz"},
		{"VddV", "V"},
		{"demandA", "A"},
		{"WidthMM", "MM"},
		{"capJPerK", ""},       // compound unit: J per K
		{"SinkResKPerW", ""},   // compound unit: K per W
		{"BurstRatePerMS", ""}, // rate, not a duration
		{"DVFS", ""},           // initialism, S not a camelCase suffix
		{"CSV", ""},
		{"NOC", ""},
		{"WMA", ""},
		{"K", ""}, // the whole name is the suffix: not a tag
		{"KSiWPerMMK", ""},
		{"PoutPerAreaWmm2", ""},
	}
	for _, tc := range cases {
		got := ""
		if u := suffixUnit(tc.name); u != nil {
			got = u.Suffix
		}
		if got != tc.want {
			t.Errorf("suffixUnit(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestUnitMismatchKinds(t *testing.T) {
	c := lookupSuffix("C")
	k := lookupSuffix("K")
	s := lookupSuffix("S")
	ms := lookupSuffix("MS")
	mw := lookupSuffix("mW")
	mwUpper := lookupSuffix("MW")
	if got := mismatch(c, k); got != "scale" {
		t.Errorf("C vs K = %q, want scale", got)
	}
	if got := mismatch(c, s); got != "dimension" {
		t.Errorf("C vs S = %q, want dimension", got)
	}
	if got := mismatch(s, ms); got != "scale" {
		t.Errorf("S vs MS = %q, want scale", got)
	}
	if got := mismatch(mw, mwUpper); got != "" {
		t.Errorf("mW vs MW = %q, want compatible", got)
	}
	if got := mismatch(nil, c); got != "" {
		t.Errorf("nil vs C = %q, want compatible", got)
	}
}
