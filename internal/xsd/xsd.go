// Package xsd implements the XML-Schema subset needed by the SOAP engine
// and the WSDL generator: the built-in simple types, lexical encoding and
// decoding of Go values, document/literal marshalling of Go values to
// element trees, and generation of schema complexType definitions from Go
// struct types.
package xsd

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"wspeer/internal/xmlutil"
)

// Namespace is the XML-Schema namespace.
const Namespace = "http://www.w3.org/2001/XMLSchema"

// Built-in simple type names.
var (
	String       = xmlutil.N(Namespace, "string")
	Boolean      = xmlutil.N(Namespace, "boolean")
	Int          = xmlutil.N(Namespace, "int")
	Long         = xmlutil.N(Namespace, "long")
	Short        = xmlutil.N(Namespace, "short")
	Byte         = xmlutil.N(Namespace, "byte")
	UnsignedInt  = xmlutil.N(Namespace, "unsignedInt")
	UnsignedLong = xmlutil.N(Namespace, "unsignedLong")
	Float        = xmlutil.N(Namespace, "float")
	Double       = xmlutil.N(Namespace, "double")
	DateTime     = xmlutil.N(Namespace, "dateTime")
	Base64Binary = xmlutil.N(Namespace, "base64Binary")
)

var timeType = reflect.TypeOf(time.Time{})
var bytesType = reflect.TypeOf([]byte(nil))

// SimpleTypeFor returns the built-in XSD type for a Go type, and whether the
// Go type maps to a simple type at all.
func SimpleTypeFor(t reflect.Type) (xmlutil.Name, bool) {
	if t == timeType {
		return DateTime, true
	}
	if t == bytesType {
		return Base64Binary, true
	}
	switch t.Kind() {
	case reflect.String:
		return String, true
	case reflect.Bool:
		return Boolean, true
	case reflect.Int, reflect.Int64:
		return Long, true
	case reflect.Int32:
		return Int, true
	case reflect.Int16:
		return Short, true
	case reflect.Int8:
		return Byte, true
	case reflect.Uint, reflect.Uint64:
		return UnsignedLong, true
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		return UnsignedInt, true
	case reflect.Float32:
		return Float, true
	case reflect.Float64:
		return Double, true
	}
	return xmlutil.Name{}, false
}

// EncodeSimple renders a simple-typed Go value in its XSD lexical form.
func EncodeSimple(v reflect.Value) (string, error) {
	t := v.Type()
	if t == timeType {
		return v.Interface().(time.Time).UTC().Format(time.RFC3339Nano), nil
	}
	if t == bytesType {
		return base64.StdEncoding.EncodeToString(v.Bytes()), nil
	}
	switch t.Kind() {
	case reflect.String:
		return v.String(), nil
	case reflect.Bool:
		return strconv.FormatBool(v.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.FormatUint(v.Uint(), 10), nil
	case reflect.Float32:
		return strconv.FormatFloat(v.Float(), 'g', -1, 32), nil
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64), nil
	}
	return "", fmt.Errorf("xsd: cannot encode %s as a simple type", t)
}

// DecodeSimple parses an XSD lexical form into a new Go value of type t.
func DecodeSimple(s string, t reflect.Type) (reflect.Value, error) {
	if t == timeType {
		// Accept RFC3339 with or without sub-second precision.
		ts, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return reflect.Value{}, fmt.Errorf("xsd: bad dateTime %q: %w", s, err)
		}
		return reflect.ValueOf(ts), nil
	}
	if t == bytesType {
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return reflect.Value{}, fmt.Errorf("xsd: bad base64Binary: %w", err)
		}
		return reflect.ValueOf(b), nil
	}
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		// XSD allows 1/0 as well as true/false.
		switch s {
		case "true", "1":
			v.SetBool(true)
		case "false", "0":
			v.SetBool(false)
		default:
			return reflect.Value{}, fmt.Errorf("xsd: bad boolean %q", s)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := strconv.ParseInt(s, 10, bitSize(t.Kind()))
		if err != nil {
			return reflect.Value{}, fmt.Errorf("xsd: bad integer %q: %w", s, err)
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, err := strconv.ParseUint(s, 10, bitSize(t.Kind()))
		if err != nil {
			return reflect.Value{}, fmt.Errorf("xsd: bad unsigned integer %q: %w", s, err)
		}
		v.SetUint(n)
	case reflect.Float32, reflect.Float64:
		n, err := strconv.ParseFloat(s, bitSize(t.Kind()))
		if err != nil {
			return reflect.Value{}, fmt.Errorf("xsd: bad float %q: %w", s, err)
		}
		v.SetFloat(n)
	default:
		return reflect.Value{}, fmt.Errorf("xsd: cannot decode into %s", t)
	}
	return v, nil
}

func bitSize(k reflect.Kind) int {
	switch k {
	case reflect.Int8, reflect.Uint8:
		return 8
	case reflect.Int16, reflect.Uint16:
		return 16
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 32
	default:
		return 64
	}
}
