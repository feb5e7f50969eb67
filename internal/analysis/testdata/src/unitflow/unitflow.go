// Package unitflow is a tglint fixture for the unit pass's propagation
// rules. Every violation here is invisible to suffixes alone: the
// offending value always travels through at least one unsuffixed local
// or one call boundary, so only flow propagation can connect the unit
// at the source to the contradiction at the use.
package unitflow

// ambientK has a single anonymous float result, so its own name suffix
// declares the unit (the callee-name convention).
func ambientK() float64 { return 300.0 }

// readTemp carries no suffix anywhere in its signature; its unit is
// inferred bottom-up from the body (every return path yields kelvin).
func readTemp() float64 {
	tempK := 300.0
	return tempK
}

// busW declares watts through its name.
func busW() float64 { return 1.5 }

// readMilli infers milliwatts from the returned local's suffix.
func readMilli() float64 {
	loadMW := 5.0
	return loadMW
}

func setTempC(tempC float64) float64 { return tempC }
func setTempK(tempK float64) float64 { return tempK }

// meter exposes Celsius readings through a suffixed field; elements of
// the vector carry the vector's unit.
type meter struct {
	tempsC []float64
}

// worst is kelvin-free: its result unit is inferred through the
// IndexExpr element rule plus the environment.
func (m *meter) worst() float64 {
	w := m.tempsC[0]
	for _, t := range m.tempsC {
		if t > w {
			w = t
		}
	}
	return w
}

type frame struct {
	powerW float64
}

// Demo seeds the cross-call violations.
func Demo(m *meter) []float64 {
	a := ambientK()
	r1 := setTempC(a) // want "scale mismatch"

	v := readTemp()
	r2 := setTempC(v) // want "scale mismatch"

	r3 := setTempK(m.worst()) // want "scale mismatch"

	limitC := 85.0
	if v > limitC { // want "scale mismatch"
		r3 = 0
	}

	p := readMilli()
	f := frame{powerW: p} // want "scale mismatch"

	//lint:ignore unitflow fixture demonstrates an annotated, intentional mismatch
	r4 := setTempC(ambientK())

	return []float64{r1, r2, r3, f.powerW, r4}
}

// supplyV declares volts via its name but returns a watt value whose
// unit lives in the environment, not the identifier: the
// return-statement check.
func supplyV() float64 {
	x := busW()
	return x // want "dimension mismatch"
}
