package telemetry

import "math"

// Kind is the type of a Field's value.
type Kind uint8

// The four value kinds a Record carries: every integer is an int64.
const (
	KindInt Kind = iota
	KindFloat
	KindBool
	KindString
)

// A Field is one typed key/value pair of a Record. Fields keep their
// insertion order so streamed output (JSONL columns, CSV headers) is
// deterministic. The value is held unboxed: integers, float bits and
// bools in num, strings in str.
type Field struct {
	Key  string
	Kind Kind
	num  uint64
	str  string
}

// Int, Float, Bool and Str read the field's value; each is meaningful only
// for its own Kind.
func (f Field) Int() int64     { return int64(f.num) }
func (f Field) Float() float64 { return math.Float64frombits(f.num) }
func (f Field) Bool() bool     { return f.num != 0 }
func (f Field) Str() string    { return f.str }

// Value returns the field's value boxed as int64, float64, bool or string.
func (f Field) Value() any {
	switch f.Kind {
	case KindInt:
		return f.Int()
	case KindFloat:
		return f.Float()
	case KindBool:
		return f.Bool()
	default:
		return f.str
	}
}

// A Record is one telemetry emission — a named event (e.g. "epoch", "run")
// with ordered fields — streamed to the registry's sinks via Emit. A hot
// loop keeps one Record and Resets it per emission, so the steady state
// reuses the field slice and allocates nothing.
type Record struct {
	Name   string
	Fields []Field
}

// NewRecord starts a record with the given event name.
func NewRecord(name string) *Record {
	return &Record{Name: name}
}

// Reset renames the record and drops its fields, keeping their storage.
func (r *Record) Reset(name string) *Record {
	r.Name = name
	r.Fields = r.Fields[:0]
	return r
}

// Clone returns a deep copy, for a sink that keeps records past Emit.
func (r *Record) Clone() *Record {
	return &Record{Name: r.Name, Fields: append([]Field(nil), r.Fields...)}
}

// Int appends an integer field and returns the record for chaining.
func (r *Record) Int(key string, v int64) *Record {
	r.Fields = append(r.Fields, Field{Key: key, Kind: KindInt, num: uint64(v)})
	return r
}

// Float appends a float field and returns the record for chaining.
func (r *Record) Float(key string, v float64) *Record {
	r.Fields = append(r.Fields, Field{Key: key, Kind: KindFloat, num: math.Float64bits(v)})
	return r
}

// Bool appends a boolean field and returns the record for chaining.
func (r *Record) Bool(key string, v bool) *Record {
	var n uint64
	if v {
		n = 1
	}
	r.Fields = append(r.Fields, Field{Key: key, Kind: KindBool, num: n})
	return r
}

// Str appends a string field and returns the record for chaining.
func (r *Record) Str(key, v string) *Record {
	r.Fields = append(r.Fields, Field{Key: key, Kind: KindString, str: v})
	return r
}

// Get returns the value of the first field with the given key, boxed as
// by Field.Value.
func (r *Record) Get(key string) (any, bool) {
	for _, f := range r.Fields {
		if f.Key == key {
			return f.Value(), true
		}
	}
	return nil, false
}
