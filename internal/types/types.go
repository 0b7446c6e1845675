// Package types defines the engine's value and type system: the built-in
// SQL types (INT, FLOAT, BOOL, CHAR/VARCHAR, DATE) plus opaque user-defined
// types (UDTs) contributed by DataBlade-style extensions. Everything the
// executor moves between operators is a Value; every Value carries its
// *Type.
//
// The type system deliberately mirrors the extension surface TIP relies on
// in Informix: a UDT supplies parse/format hooks (so SQL string literals
// cast implicitly to and from the type), a binary codec (for storage and
// the wire protocol), and an optional native comparison (used for ORDER BY
// and grouping).
package types

import (
	"fmt"

	"tip/internal/temporal"
)

// Kind discriminates the physical representation of a value.
type Kind int

// The engine's physical kinds. KindUDT covers every blade-registered type.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindDate
	KindUDT
)

// Type describes a SQL type. Two Type pointers are comparable: the catalog
// interns one *Type per distinct type name.
type Type struct {
	// Name is the canonical SQL name, upper-case for built-ins
	// ("INT", "VARCHAR") and as registered for UDTs ("Chronon").
	Name string
	// Kind is the physical representation.
	Kind Kind
	// UDT carries the behaviour hooks for KindUDT types.
	UDT *UDT
}

// String returns the SQL name of the type.
func (t *Type) String() string { return t.Name }

// UDT is the behaviour table a DataBlade supplies when registering an
// opaque type.
type UDT struct {
	// Name is the type's SQL name.
	Name string
	// Parse converts literal text (the same syntax Format produces) into
	// the type's internal object. Used for implicit string→UDT casts.
	Parse func(s string) (any, error)
	// Format renders the internal object as literal text. Used for
	// implicit UDT→string casts and for display.
	Format func(v any) string
	// Encode appends the efficient binary form to buf (storage, wire).
	Encode func(v any, buf []byte) []byte
	// Decode reads one value from the front of buf, returning the rest.
	Decode func(buf []byte) (any, []byte, error)
	// Compare orders two objects of the type under a concrete value of
	// NOW. It is optional: types without a natural total order (e.g.
	// Element) leave it nil and cannot be used in ORDER BY directly.
	Compare func(a, b any, now temporal.Chronon) (int, error)
	// Key returns a grouping key for the object, used by GROUP BY and
	// DISTINCT. Optional; types without Key fall back to Format.
	Key func(v any, now temporal.Chronon) string
	// StableKey declares that Key (or Format) is independent of NOW for
	// every value of the type, which makes the type eligible for hash
	// indexing. Chronon and Span are stable; Instant, Period and Element
	// are not (their keys may involve NOW-relative parts).
	StableKey bool
}

// Built-in types. These are interned singletons; the catalog hands out
// these pointers for every built-in column.
var (
	TNull   = &Type{Name: "NULL", Kind: KindNull}
	TInt    = &Type{Name: "INT", Kind: KindInt}
	TFloat  = &Type{Name: "FLOAT", Kind: KindFloat}
	TBool   = &Type{Name: "BOOLEAN", Kind: KindBool}
	TString = &Type{Name: "VARCHAR", Kind: KindString}
	TDate   = &Type{Name: "DATE", Kind: KindDate}
)

// Value is a single SQL value: a type tag, a null flag, and the payload in
// the slot matching the type's kind. Values are small and copied freely.
type Value struct {
	T    *Type
	Null bool
	// I holds KindInt (int64), KindBool (0/1) and KindDate (days since
	// 1970-01-01) payloads.
	I int64
	// F holds KindFloat payloads.
	F float64
	// S holds KindString payloads.
	S string
	// O holds KindUDT payloads (the UDT's internal object).
	O any
}

// NewNull returns the typed NULL of t (use TNull for the untyped NULL
// literal).
func NewNull(t *Type) Value { return Value{T: t, Null: true} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{T: TInt, I: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{T: TFloat, F: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{T: TBool, I: i}
}

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{T: TString, S: s} }

// NewDate returns a DATE value from days since 1970-01-01.
func NewDate(days int64) Value { return Value{T: TDate, I: days} }

// NewUDT returns a value of the given UDT type wrapping obj.
func NewUDT(t *Type, obj any) Value {
	if t.Kind != KindUDT {
		panic("types: NewUDT on non-UDT type " + t.Name)
	}
	return Value{T: t, O: obj}
}

// Int returns the int64 payload.
func (v Value) Int() int64 { return v.I }

// Float returns the float64 payload, widening INT values.
func (v Value) Float() float64 {
	if v.T.Kind == KindInt {
		return float64(v.I)
	}
	return v.F
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.I != 0 }

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// Obj returns the UDT object payload.
func (v Value) Obj() any { return v.O }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null }

// Format renders the value as display text ("NULL" for nulls; UDTs via
// their Format hook).
func (v Value) Format() string {
	if v.Null {
		return "NULL"
	}
	switch v.T.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return formatFloat(v.F)
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindString:
		return v.S
	case KindDate:
		return formatDate(v.I)
	case KindUDT:
		return v.T.UDT.Format(v.O)
	default:
		return "NULL"
	}
}

// Key returns a string that identifies the value for grouping, DISTINCT
// and hash joins. Distinct values of the same type yield distinct keys.
func (v Value) Key(now temporal.Chronon) string {
	if v.Null {
		return "\x00N"
	}
	if v.T.Kind == KindUDT && v.T.UDT.Key != nil {
		return v.T.UDT.Key(v.O, now)
	}
	return v.Format()
}

// Compare orders v against w under a concrete value of NOW. Values must
// have comparable types; NULL ordering is the caller's concern (Compare
// reports an error on NULL input).
func (v Value) Compare(w Value, now temporal.Chronon) (int, error) {
	if v.Null || w.Null {
		return 0, fmt.Errorf("types: comparing NULL")
	}
	switch {
	case v.T.Kind == KindUDT || w.T.Kind == KindUDT:
		if v.T != w.T {
			return 0, fmt.Errorf("types: cannot compare %s with %s", v.T, w.T)
		}
		if v.T.UDT.Compare == nil {
			return 0, fmt.Errorf("types: %s has no ordering", v.T)
		}
		return v.T.UDT.Compare(v.O, w.O, now)
	case v.T.Kind == KindString && w.T.Kind == KindString:
		switch {
		case v.S < w.S:
			return -1, nil
		case v.S > w.S:
			return 1, nil
		}
		return 0, nil
	case v.T.Kind == KindBool && w.T.Kind == KindBool:
		return cmpInt(v.I, w.I), nil
	case v.T.Kind == KindDate && w.T.Kind == KindDate:
		return cmpInt(v.I, w.I), nil
	case isNumeric(v.T.Kind) && isNumeric(w.T.Kind):
		if v.T.Kind == KindFloat || w.T.Kind == KindFloat {
			a, b := v.Float(), w.Float()
			switch {
			case a < b:
				return -1, nil
			case a > b:
				return 1, nil
			}
			return 0, nil
		}
		return cmpInt(v.I, w.I), nil
	default:
		return 0, fmt.Errorf("types: cannot compare %s with %s", v.T, w.T)
	}
}

// Comparable reports whether Compare orders non-NULL values of types a
// and b, decided from the types alone.
func Comparable(a, b *Type) bool {
	switch {
	case a.Kind == KindNull || b.Kind == KindNull:
		return false
	case a.Kind == KindUDT || b.Kind == KindUDT:
		return a == b && a.UDT.Compare != nil
	case isNumeric(a.Kind) && isNumeric(b.Kind):
		return true
	default:
		return a.Kind == b.Kind
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
