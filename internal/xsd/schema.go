package xsd

import (
	"fmt"
	"reflect"
	"slices"

	"wspeer/internal/xmlutil"
)

// Schema accumulates element and complex-type declarations for one target
// namespace and writes them as an <xsd:schema> element suitable for
// embedding in a WSDL <types> section.
//
// The generator is driven by Go types: struct types become named
// complexTypes, and operation wrappers (request/response elements) are
// declared with AddElement.
type Schema struct {
	TargetNamespace string

	elements []wrapperElement
	types    map[string]reflect.Type // complexType name -> Go struct type
}

// Field is one named, typed member of a wrapper element's sequence.
type Field struct {
	Name string
	Type reflect.Type
}

type wrapperElement struct {
	name   string
	fields []Field
}

// NewSchema returns an empty schema for the target namespace.
func NewSchema(targetNamespace string) *Schema {
	return &Schema{
		TargetNamespace: targetNamespace,
		types:           make(map[string]reflect.Type),
	}
}

// AddElement declares a top-level element with an anonymous complexType
// whose sequence holds the given fields, registering any struct types the
// fields reference. This is how operation request/response wrappers are
// declared.
func (s *Schema) AddElement(name string, fields []Field) error {
	for _, f := range fields {
		if err := s.registerType(f.Type); err != nil {
			return fmt.Errorf("xsd: element %s, field %s: %w", name, f.Name, err)
		}
	}
	s.elements = append(s.elements, wrapperElement{name: name, fields: fields})
	return nil
}

// HasElement reports whether a top-level element with the name is declared.
func (s *Schema) HasElement(name string) bool {
	for _, e := range s.elements {
		if e.name == name {
			return true
		}
	}
	return false
}

// registerType walks a Go type, registering every named struct type it
// reaches as a complexType.
func (s *Schema) registerType(t reflect.Type) error {
	if t == timeType || t == bytesType {
		return nil
	}
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice:
		return s.registerType(t.Elem())
	case reflect.Array:
		return fmt.Errorf("unsupported Go type %s%s", t, hint(t))
	case reflect.Struct:
		name := t.Name()
		if name == "" {
			return fmt.Errorf("anonymous struct types cannot be mapped to a named complexType")
		}
		if existing, ok := s.types[name]; ok {
			if existing != t {
				return fmt.Errorf("two distinct Go types both map to complexType %q (%v and %v)", name, existing, t)
			}
			return nil
		}
		s.types[name] = t
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			space, _, opt, skip := fieldName(f)
			switch {
			case skip:
				continue
			case opt == "attr" || opt == "chardata":
				return fmt.Errorf("field %s: an ,%s field has no form in a schema of elements", f.Name, opt)
			case space != "" || opt == "any":
				return fmt.Errorf("field %s: a namespace-qualified or ,any field has no form in a one-namespace schema", f.Name)
			}
			if err := s.registerType(f.Type); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		return nil
	case reflect.Map, reflect.Chan, reflect.Func, reflect.Interface,
		reflect.UnsafePointer, reflect.Complex64, reflect.Complex128:
		return fmt.Errorf("unsupported Go type %s", t)
	default:
		if _, ok := SimpleTypeFor(t); !ok {
			return fmt.Errorf("unsupported Go type %s", t)
		}
		return nil
	}
}

// typeRef returns the QName to put in a type="" attribute for t, plus the
// occurrence constraints implied by the Go type.
func (s *Schema) typeRef(t reflect.Type) (ref xmlutil.Name, minOccurs, maxOccurs string, err error) {
	minOccurs, maxOccurs = "1", "1"
	if t == timeType || t == bytesType {
		n, _ := SimpleTypeFor(t)
		return n, minOccurs, maxOccurs, nil
	}
	switch t.Kind() {
	case reflect.Ptr:
		ref, _, _, err = s.typeRef(t.Elem())
		return ref, "0", "1", err
	case reflect.Slice:
		ref, _, _, err = s.typeRef(t.Elem())
		return ref, "0", "unbounded", err
	case reflect.Struct:
		return xmlutil.N(s.TargetNamespace, t.Name()), minOccurs, maxOccurs, nil
	default:
		n, ok := SimpleTypeFor(t)
		if !ok {
			return xmlutil.Name{}, "", "", fmt.Errorf("xsd: unsupported Go type %s", t)
		}
		return n, minOccurs, maxOccurs, nil
	}
}

// Assign gives w a prefix for every namespace the schema is written in, in
// the order a walk of its tree meets them: the schema element's own, then
// the target namespace, which it declares as tns for type references.
func (s *Schema) Assign(w *xmlutil.Writer) {
	w.Assign(Namespace)
	w.Declare("tns", s.TargetNamespace)
}

// WriteXML writes the <xsd:schema> element to w, which has been through
// Assign: the wrapper elements in the order they were added, then the
// complexTypes by name.
func (s *Schema) WriteXML(w *xmlutil.Writer) error {
	x := w.Prefix(Namespace)
	w.Start(x, "schema")
	w.Attr(xmlutil.N("", "targetNamespace"), s.TargetNamespace)
	w.Attr(xmlutil.N("", "elementFormDefault"), "qualified")
	schema := w.Enter()
	for _, we := range s.elements {
		w.Start(x, "element")
		w.Attr(nameAttr, we.name)
		el, ct, seq := w.Enter(), w.Open(x, "complexType"), w.Open(x, "sequence")
		for _, f := range we.fields {
			if err := s.member(w, x, f.Name, f.Type); err != nil {
				return err
			}
		}
		w.Close(x, "sequence", seq)
		w.Close(x, "complexType", ct)
		w.Close(x, "element", el)
	}
	names := make([]string, 0, len(s.types))
	for n := range s.types {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, name := range names {
		t := s.types[name]
		w.Start(x, "complexType")
		w.Attr(nameAttr, name)
		ct, seq := w.Enter(), w.Open(x, "sequence")
		for i := 0; i < t.NumField(); i++ {
			if _, fn, _, skip := fieldName(t.Field(i)); !skip {
				if err := s.member(w, x, fn, t.Field(i).Type); err != nil {
					return err
				}
			}
		}
		w.Close(x, "sequence", seq)
		w.Close(x, "complexType", ct)
	}
	w.Close(x, "schema", schema)
	return nil
}

var nameAttr = xmlutil.N("", "name")

// member writes a sequence's element declaration for a field of type t.
func (s *Schema) member(w *xmlutil.Writer, x, name string, t reflect.Type) error {
	ref, minOcc, maxOcc, err := s.typeRef(t)
	if err != nil {
		return err
	}
	w.Start(x, "element")
	w.Attr(nameAttr, name)
	w.QNameAttr(xmlutil.N("", "type"), ref)
	if minOcc != "1" {
		w.Attr(xmlutil.N("", "minOccurs"), minOcc)
	}
	if maxOcc != "1" {
		w.Attr(xmlutil.N("", "maxOccurs"), maxOcc)
	}
	w.Close(x, "element", w.Enter())
	return nil
}
