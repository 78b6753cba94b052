// Package xsd implements the XML-Schema subset needed by the SOAP engine
// and the WSDL generator: the built-in simple types, lexical encoding and
// decoding of Go values, document/literal marshalling of Go values to
// element trees, and generation of schema complexType definitions from Go
// struct types.
package xsd

import (
	"encoding/base64"
	"fmt"
	"math"
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
	if _, ok := SimpleTypeFor(v.Type()); !ok {
		return "", fmt.Errorf("xsd: cannot encode %s as a simple type", v.Type())
	}
	if v.Kind() == reflect.String {
		return v.String(), nil
	}
	return string(appendSimple(nil, v)), nil
}

// appendSimple appends the lexical form of v, whose type is a simple one
// other than string.
func appendSimple(dst []byte, v reflect.Value) []byte {
	switch v.Type() {
	case timeType:
		return v.Interface().(time.Time).UTC().AppendFormat(dst, time.RFC3339Nano)
	case bytesType:
		return base64.StdEncoding.AppendEncode(dst, v.Bytes())
	}
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(dst, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(dst, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(dst, v.Uint(), 10)
	}
	// The lexical space of float and double spells the infinities INF and
	// -INF (strconv's +Inf and -Inf are still read back).
	switch f := v.Float(); {
	case math.IsInf(f, 1):
		return append(dst, "INF"...)
	case math.IsInf(f, -1):
		return append(dst, "-INF"...)
	default:
		return strconv.AppendFloat(dst, f, 'g', -1, bitSize(v.Kind()))
	}
}

// setSimple parses an XSD lexical form, as the bytes of the message hold
// it, into dst, which is addressable. Only a string copies them: a number
// parses from a conversion that does not outlive the call.
func setSimple(dst reflect.Value, b []byte) error {
	switch t := dst.Type(); t {
	case timeType:
		// Accept RFC3339 with or without sub-second precision.
		ts, err := time.Parse(time.RFC3339Nano, string(b))
		if err != nil {
			return fmt.Errorf("xsd: bad dateTime %q: %w", b, err)
		}
		*dst.Addr().Interface().(*time.Time) = ts
		return nil
	case bytesType:
		raw := make([]byte, base64.StdEncoding.DecodedLen(len(b)))
		n, err := base64.StdEncoding.Decode(raw, b)
		if err != nil {
			return fmt.Errorf("xsd: bad base64Binary: %w", err)
		}
		dst.SetBytes(raw[:n])
		return nil
	}
	switch k := dst.Kind(); k {
	case reflect.String:
		dst.SetString(string(b))
	case reflect.Bool:
		// XSD allows 1/0 as well as true/false.
		switch string(b) {
		case "true", "1":
			dst.SetBool(true)
		case "false", "0":
			dst.SetBool(false)
		default:
			return fmt.Errorf("xsd: bad boolean %q", b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := strconv.ParseInt(string(b), 10, bitSize(k))
		if err != nil {
			return fmt.Errorf("xsd: bad integer %q: %w", b, err)
		}
		dst.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, err := strconv.ParseUint(string(b), 10, bitSize(k))
		if err != nil {
			return fmt.Errorf("xsd: bad unsigned integer %q: %w", b, err)
		}
		dst.SetUint(n)
	case reflect.Float32, reflect.Float64:
		n, err := strconv.ParseFloat(string(b), bitSize(k))
		if err != nil {
			return fmt.Errorf("xsd: bad float %q: %w", b, err)
		}
		dst.SetFloat(n)
	default:
		return fmt.Errorf("xsd: cannot decode into %s", dst.Type())
	}
	return nil
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
