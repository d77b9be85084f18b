// Package tuple defines the value, schema, and tuple representations used
// throughout CLASH. Tuples are flat records of typed values with an event
// timestamp; joined tuples are concatenations of their inputs under a
// concatenated schema.
package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

// The supported value kinds. Null is the zero value.
const (
	Null Kind = iota
	Int
	Float
	String
	Bool
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union. The zero Value is Null. Values are
// comparable with ==, usable as map keys, and hash via Hash.
type Value struct {
	kind Kind
	num  int64 // Int, Bool (0/1), Float (IEEE 754 bits)
	str  string
}

// IntValue returns an Int value.
func IntValue(v int64) Value { return Value{kind: Int, num: v} }

// FloatValue returns a Float value.
func FloatValue(v float64) Value { return Value{kind: Float, num: int64(math.Float64bits(v))} }

// StringValue returns a String value.
func StringValue(v string) Value { return Value{kind: String, str: v} }

// BoolValue returns a Bool value.
func BoolValue(v bool) Value {
	if v {
		return Value{kind: Bool, num: 1}
	}
	return Value{kind: Bool}
}

// NullValue returns the Null value.
func NullValue() Value { return Value{} }

// MakeValue rebuilds a value from the parts Kind, Int and Str report:
// MakeValue(v.Kind(), v.Int(), v.Str()) == v for every v, bit for bit
// (Float payloads included). Stores that keep values by column use it to
// hand a cell back as a Value.
func MakeValue(k Kind, num int64, str string) Value {
	if k == String {
		return Value{kind: String, str: str}
	}
	return Value{kind: k, num: num}
}

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload. It is only meaningful for Int values.
func (v Value) Int() int64 { return v.num }

// Float returns the float payload. It is only meaningful for Float values.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.num)) }

// Str returns the string payload. It is only meaningful for String values.
func (v Value) Str() string { return v.str }

// Bool returns the boolean payload. It is only meaningful for Bool values.
func (v Value) Bool() bool { return v.num != 0 }

// String renders the value for logs and CSV output.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.num, 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case String:
		return v.str
	case Bool:
		return strconv.FormatBool(v.Bool())
	default:
		return "?"
	}
}

// Hash returns a 64-bit hash of the value, suitable for partitioning and
// index buckets. Equal values hash equally across kinds that compare equal
// under == (kinds are part of the hash, so Int(1) and Bool(true) differ).
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(v.kind)
	h *= prime64
	if v.kind == String {
		for i := 0; i < len(v.str); i++ {
			h ^= uint64(v.str[i])
			h *= prime64
		}
		return h
	}
	u := uint64(v.num)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= prime64
		u >>= 8
	}
	return h
}

// Less orders values of the same kind; across kinds it orders by kind.
// It provides a deterministic total order for sorted output.
func (v Value) Less(o Value) bool {
	if v.kind != o.kind {
		return v.kind < o.kind
	}
	switch v.kind {
	case String:
		return v.str < o.str
	case Float:
		return v.Float() < o.Float()
	default:
		return v.num < o.num
	}
}

// MemSize returns the approximate in-memory footprint of the value in
// bytes, used for store memory accounting.
func (v Value) MemSize() int {
	// kind byte + 8-byte payload + string header/content when present.
	if v.kind == String {
		return 1 + 16 + len(v.str)
	}
	return 1 + 8
}
