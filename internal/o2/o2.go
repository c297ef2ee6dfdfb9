// Package o2 is the structured-source substrate of the reproduction: an
// in-memory ODMG-style object database standing in for the (commercial,
// long-defunct) O₂ system the paper wraps. It provides a schema manager
// (classes, tuple types, collections, references, methods), named extents,
// object identity, hash indexes for associative access, and an OQL subset
// (select–from–where with path expressions over nested collections, method
// calls, order by, distinct) sufficient for every query of Section 4.1.
package o2

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// VKind discriminates runtime values.
type VKind int

// Value kinds.
const (
	VNil VKind = iota
	VInt
	VFloat
	VBool
	VStr
	VTuple
	VColl
	VOid
)

// Val is an O₂ runtime value. A tuple and a collection both hold their
// components in Elems; a tuple's field Names[i] holds Elems[i], and no name
// is given twice (ParseOQL and DB.Run refuse a tuple that would). Tuples of
// one shape may share one Names list, so a value is not changed once built.
type Val struct {
	Kind  VKind
	I     int64
	F     float64
	B     bool
	S     string   // VStr and VOid
	Names []string // VTuple
	Col   CollKind // VColl
	Elems []Val    // VTuple and VColl
}

// CollKind enumerates ODMG collection constructors.
type CollKind int

// Collection kinds.
const (
	CSet CollKind = iota
	CBag
	CList
	CArray
)

// String names the collection kind.
func (c CollKind) String() string {
	switch c {
	case CSet:
		return "set"
	case CBag:
		return "bag"
	case CList:
		return "list"
	default:
		return "array"
	}
}

// Value constructors.

// Nil returns the nil value.
func Nil() Val { return Val{Kind: VNil} }

// Int wraps an integer.
func Int(v int64) Val { return Val{Kind: VInt, I: v} }

// Float wraps a float.
func Float(v float64) Val { return Val{Kind: VFloat, F: v} }

// Bool wraps a boolean.
func Bool(v bool) Val { return Val{Kind: VBool, B: v} }

// Str wraps a string.
func Str(v string) Val { return Val{Kind: VStr, S: v} }

// Oid wraps an object identifier.
func Oid(id string) Val { return Val{Kind: VOid, S: id} }

// Tuple builds a tuple whose field names[i] holds vals[i]. It keeps names as
// given, so that tuples of one shape can share one list.
func Tuple(names []string, vals ...Val) Val {
	if len(names) != len(vals) {
		panic(fmt.Sprintf("o2: a tuple of %d names and %d values", len(names), len(vals)))
	}
	return Val{Kind: VTuple, Names: names, Elems: vals}
}

// Field returns the value of tuple v's field name, and whether v has one.
func (v Val) Field(name string) (Val, bool) {
	for i, n := range v.Names {
		if n == name {
			return v.Elems[i], true
		}
	}
	return Nil(), false
}

// Coll builds a collection value.
func Coll(kind CollKind, elems ...Val) Val {
	return Val{Kind: VColl, Col: kind, Elems: elems}
}

// IsNumeric reports whether the value is Int or Float.
func (v Val) IsNumeric() bool { return v.Kind == VInt || v.Kind == VFloat }

// AsFloat widens a numeric value.
func (v Val) AsFloat() float64 {
	if v.Kind == VInt {
		return float64(v.I)
	}
	return v.F
}

// Equal compares two values (numeric widening, deep for tuples/collections;
// sets compare order-insensitively).
func (v Val) Equal(w Val) bool {
	if v.IsNumeric() && w.IsNumeric() {
		return v.AsFloat() == w.AsFloat()
	}
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case VNil:
		return true
	case VBool:
		return v.B == w.B
	case VStr, VOid:
		return v.S == w.S
	case VTuple:
		if len(v.Names) != len(w.Names) {
			return false
		}
		for i, n := range v.Names {
			wf, ok := w.Field(n)
			if !ok || !v.Elems[i].Equal(wf) {
				return false
			}
		}
		return true
	case VColl:
		if v.Col != w.Col || len(v.Elems) != len(w.Elems) {
			return false
		}
		a, b := v.Elems, w.Elems
		if v.Col == CSet || v.Col == CBag {
			a, b = append([]Val(nil), a...), append([]Val(nil), b...)
			slices.SortStableFunc(a, Val.Compare)
			slices.SortStableFunc(b, Val.Compare)
		}
		return slices.EqualFunc(a, b, Val.Equal)
	default:
		return false
	}
}

// Compare defines a total order usable for sorting (ORDER BY, set
// normalization); cross-kind ordering is by kind.
func (v Val) Compare(w Val) int {
	if v.IsNumeric() && w.IsNumeric() {
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind != w.Kind {
		if v.Kind < w.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case VBool:
		switch {
		case v.B == w.B:
			return 0
		case !v.B:
			return -1
		default:
			return 1
		}
	case VStr, VOid:
		return strings.Compare(v.S, w.S)
	default:
		return strings.Compare(v.String(), w.String())
	}
}

// String renders the value in OQL-ish literal syntax.
func (v Val) String() string {
	switch v.Kind {
	case VNil:
		return "nil"
	case VInt:
		return strconv.FormatInt(v.I, 10)
	case VFloat:
		s := strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v.F), "0"), ".")
		if s == "-0" { // a negative too small to print is the 0 it reads back as
			s = "0"
		}
		return s
	case VBool:
		return strconv.FormatBool(v.B)
	case VStr:
		return strconv.Quote(v.S) // as %q writes it
	case VOid:
		return "&" + v.S
	case VTuple:
		parts := make([]string, len(v.Names))
		for i, n := range v.Names {
			parts[i] = n + ": " + v.Elems[i].String()
		}
		return "tuple(" + strings.Join(parts, ", ") + ")"
	case VColl:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = e.String()
		}
		return v.Col.String() + "(" + strings.Join(parts, ", ") + ")"
	default:
		return "?"
	}
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

// TKind discriminates schema types.
type TKind int

// Type kinds.
const (
	TInt TKind = iota
	TFloat
	TBool
	TStr
	TTuple
	TColl
	TClass
)

// Type is an ODMG type.
type Type struct {
	Kind   TKind
	Fields []Field  // TTuple
	Col    CollKind // TColl
	Elem   *Type    // TColl
	Class  string   // TClass
}

// Field is a named tuple component.
type Field struct {
	Name string
	Type *Type
}

// Type constructors.

// TyInt returns the Int type.
func TyInt() *Type { return &Type{Kind: TInt} }

// TyFloat returns the Float type.
func TyFloat() *Type { return &Type{Kind: TFloat} }

// TyBool returns the Bool type.
func TyBool() *Type { return &Type{Kind: TBool} }

// TyStr returns the String type.
func TyStr() *Type { return &Type{Kind: TStr} }

// TyTuple builds a tuple type.
func TyTuple(fields ...Field) *Type { return &Type{Kind: TTuple, Fields: fields} }

// TyColl builds a collection type.
func TyColl(kind CollKind, elem *Type) *Type {
	return &Type{Kind: TColl, Col: kind, Elem: elem}
}

// TyClass builds a reference-to-class type.
func TyClass(name string) *Type { return &Type{Kind: TClass, Class: name} }

// F builds a field.
func F(name string, t *Type) Field { return Field{Name: name, Type: t} }

// Field returns the tuple field with the given name, or nil.
func (t *Type) Field(name string) *Type {
	if t == nil || t.Kind != TTuple {
		return nil
	}
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Type
		}
	}
	return nil
}

// String renders the type in ODL-ish syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case TInt:
		return "integer"
	case TFloat:
		return "float"
	case TBool:
		return "boolean"
	case TStr:
		return "string"
	case TTuple:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.Name + ": " + f.Type.String()
		}
		return "tuple(" + strings.Join(parts, ", ") + ")"
	case TColl:
		return t.Col.String() + "<" + t.Elem.String() + ">"
	case TClass:
		return t.Class
	default:
		return "?"
	}
}

// Method is a class method implemented by a Go function.
type Method struct {
	Name   string
	Class  string
	Output *Type
	Fn     func(db *DB, self *Object) (Val, error)
}

// Class declares a class with its value type, extent name and methods.
type Class struct {
	Name    string
	Type    *Type
	Extent  string
	Methods map[string]*Method
}

// Schema is the database schema: classes and their declaration order.
type Schema struct {
	Classes map[string]*Class
	Order   []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return &Schema{Classes: map[string]*Class{}} }

// AddClass declares a class with an extent of the given name.
func (s *Schema) AddClass(name string, typ *Type, extent string) *Class {
	c := &Class{Name: name, Type: typ, Extent: extent, Methods: map[string]*Method{}}
	if _, ok := s.Classes[name]; !ok {
		s.Order = append(s.Order, name)
	}
	s.Classes[name] = c
	return c
}

// AddMethod registers a method on a class.
func (s *Schema) AddMethod(class, name string, out *Type, fn func(*DB, *Object) (Val, error)) error {
	c := s.Classes[class]
	if c == nil {
		return fmt.Errorf("o2: unknown class %q", class)
	}
	c.Methods[name] = &Method{Name: name, Class: class, Output: out, Fn: fn}
	return nil
}

// ClassByExtent finds the class whose extent has the given name.
func (s *Schema) ClassByExtent(extent string) *Class {
	for _, n := range s.Order {
		if s.Classes[n].Extent == extent {
			return s.Classes[n]
		}
	}
	return nil
}

// Object is a class instance with identity.
type Object struct {
	OID   string
	Class string
	Value objectValue
}

// objectValue is an object's value, with its fields also found by name in
// a map for the benchmark's oracle (bench/oracle.go), which reads
// Value.Fields and is not changed with the engine. The map points into Elems;
// everything else reads Val.Field.
type objectValue struct {
	Val
	Fields map[string]*Val
}

// DB is the database: schema, objects, extents and indexes.
type DB struct {
	Schema  *Schema
	Objects map[string]*Object
	Extents map[string][]string // extent name -> ordered oids
	indexes map[string]map[string][]string
	nextOID int
	// QueriesRun counts executed OQL queries (observability for the
	// experiments: how many queries a mediator pushed). Guarded by statsMu:
	// a parallel mediator pushes queries from several workers at once.
	QueriesRun int
	statsMu    sync.Mutex
}

// NewDB returns an empty database over a schema.
func NewDB(s *Schema) *DB {
	return &DB{
		Schema:  s,
		Objects: map[string]*Object{},
		Extents: map[string][]string{},
		indexes: map[string]map[string][]string{},
	}
}

// NewObject creates an object of the class, inserts it in the class extent
// and in every index built on the class, and returns its oid.
func (db *DB) NewObject(class string, v Val) (string, error) {
	c := db.Schema.Classes[class]
	if c == nil {
		return "", fmt.Errorf("o2: unknown class %q", class)
	}
	if err := db.checkType(c.Type, v); err != nil {
		return "", fmt.Errorf("o2: new %s: %w", class, err)
	}
	db.nextOID++
	oid := fmt.Sprintf("%s%d", strings.ToLower(class[:1]), db.nextOID)
	fields := make(map[string]*Val, len(v.Names))
	for i, n := range v.Names {
		fields[n] = &v.Elems[i]
	}
	db.Objects[oid] = &Object{OID: oid, Class: class, Value: objectValue{v, fields}}
	db.Extents[c.Extent] = append(db.Extents[c.Extent], oid)
	for _, f := range c.Type.Fields {
		if idx, ok := db.indexes[class+"."+f.Name]; ok {
			fv, _ := v.Field(f.Name)
			key := fv.String()
			idx[key] = append(idx[key], oid)
		}
	}
	return oid, nil
}

// Get resolves an oid.
func (db *DB) Get(oid string) *Object { return db.Objects[oid] }

// checkType verifies a value against a schema type (the schema manager's
// consistency check).
func (db *DB) checkType(t *Type, v Val) error {
	switch t.Kind {
	case TInt:
		if v.Kind != VInt {
			return fmt.Errorf("expected integer, got %s", v)
		}
	case TFloat:
		if !v.IsNumeric() {
			return fmt.Errorf("expected float, got %s", v)
		}
	case TBool:
		if v.Kind != VBool {
			return fmt.Errorf("expected boolean, got %s", v)
		}
	case TStr:
		if v.Kind != VStr {
			return fmt.Errorf("expected string, got %s", v)
		}
	case TTuple:
		if v.Kind != VTuple {
			return fmt.Errorf("expected tuple, got %s", v)
		}
		for _, f := range t.Fields {
			fv, ok := v.Field(f.Name)
			if !ok {
				return fmt.Errorf("missing field %q", f.Name)
			}
			if err := db.checkType(f.Type, fv); err != nil {
				return fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
	case TColl:
		if v.Kind != VColl || v.Col != t.Col {
			return fmt.Errorf("expected %s, got %s", t.Col, v)
		}
		for i, e := range v.Elems {
			if err := db.checkType(t.Elem, e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case TClass:
		if v.Kind != VOid {
			return fmt.Errorf("expected reference to %s, got %s", t.Class, v)
		}
		o := db.Objects[v.S]
		if o == nil {
			return fmt.Errorf("dangling reference %s", v.S)
		}
		if o.Class != t.Class {
			return fmt.Errorf("reference %s has class %s, expected %s", v.S, o.Class, t.Class)
		}
	}
	return nil
}

// BuildIndex builds (or rebuilds) a hash index over class.attr equality,
// the "source specific fast access structure" of Section 5.3.
func (db *DB) BuildIndex(class, attr string) error {
	c := db.Schema.Classes[class]
	if c == nil {
		return fmt.Errorf("o2: unknown class %q", class)
	}
	if c.Type.Field(attr) == nil {
		return fmt.Errorf("o2: class %s has no attribute %q", class, attr)
	}
	idx := map[string][]string{}
	for _, oid := range db.Extents[c.Extent] {
		o := db.Objects[oid]
		fv, _ := o.Value.Field(attr)
		key := fv.String()
		idx[key] = append(idx[key], oid)
	}
	db.indexes[class+"."+attr] = idx
	return nil
}

// IndexLookup returns the oids with attr equal to v, and whether an index
// exists for (class, attr).
func (db *DB) IndexLookup(class, attr string, v Val) ([]string, bool) {
	idx, ok := db.indexes[class+"."+attr]
	if !ok {
		return nil, false
	}
	return idx[v.String()], true
}

// HasIndex reports whether (class, attr) is indexed.
func (db *DB) HasIndex(class, attr string) bool {
	_, ok := db.indexes[class+"."+attr]
	return ok
}

// ExtentSize reports the cardinality of an extent.
func (db *DB) ExtentSize(extent string) int { return len(db.Extents[extent]) }
