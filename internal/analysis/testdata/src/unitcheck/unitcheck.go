// Package unitcheck is a tglint fixture for the unitflow pass's
// suffix-visible rules: every mismatch here reads straight off
// identifier suffixes. Every "// want" line must produce a diagnostic
// containing the quoted substring; the //lint:ignore line must stay
// silent.
package unitcheck

// Config mimics a solver config with unit-suffixed fields.
type Config struct {
	AmbientC float64
	EpochMS  float64
}

// Reset expects degrees Celsius.
func Reset(tempC float64) float64 { return tempC }

// Step expects seconds.
func Step(dtS float64) float64 { return dtS }

// Demo seeds one violation of every suffix-visible rule.
func Demo() []float64 {
	tempK := 300.0
	dtMS := 5.0

	a := Reset(tempK) // want "scale mismatch"
	b := Step(dtMS)   // want "scale mismatch"

	tempC := tempK - 273.15 // recognised Kelvin→Celsius conversion: silent
	c := Reset(tempC)

	mix := tempC + dtMS // want "dimension mismatch"
	tempC += dtMS       // want "dimension mismatch"

	var windowMS float64 = tempK // want "dimension mismatch"

	cfg := Config{AmbientC: tempK} // want "scale mismatch"

	//lint:ignore unitflow fixture demonstrates an annotated, intentional mismatch
	d := Reset(tempK)

	return []float64{a, b, c, mix, windowMS, cfg.EpochMS, d}
}

// Package-level initialisers lie outside every function's CFG.
var defaultTempK = 300.0

var defaultTempC float64 = defaultTempK // want "scale mismatch"

// Closures returns a function literal: its body is checked on its own,
// and a call through a func value takes the unit of the value's name.
func Closures() func() float64 {
	readK := func() float64 { return 300.0 }
	return func() float64 {
		tempK := readK()
		return Reset(tempK) + Reset(readK()) // want "scale mismatch" "scale mismatch"
	}
}

// Classify compares in a case expression, which the CFG does not keep.
func Classify(tempC, limitK float64) int {
	switch {
	case tempC > limitK: // want "scale mismatch"
		return 1
	}
	return 0
}
