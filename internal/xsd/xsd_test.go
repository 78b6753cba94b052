package xsd

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestSimpleTypeFor(t *testing.T) {
	cases := []struct {
		v    interface{}
		want string
		ok   bool
	}{
		{"", "string", true},
		{true, "boolean", true},
		{int(0), "long", true},
		{int64(0), "long", true},
		{int32(0), "int", true},
		{int16(0), "short", true},
		{int8(0), "byte", true},
		{uint(0), "unsignedLong", true},
		{uint32(0), "unsignedInt", true},
		{float32(0), "float", true},
		{float64(0), "double", true},
		{time.Time{}, "dateTime", true},
		{[]byte(nil), "base64Binary", true},
		{struct{}{}, "", false},
		{map[string]int{}, "", false},
	}
	for _, c := range cases {
		n, ok := SimpleTypeFor(reflect.TypeOf(c.v))
		if ok != c.ok || (ok && n.Local != c.want) {
			t.Errorf("SimpleTypeFor(%T) = %v,%v want %q,%v", c.v, n, ok, c.want, c.ok)
		}
		if ok && n.Space != Namespace {
			t.Errorf("SimpleTypeFor(%T) namespace = %q", c.v, n.Space)
		}
	}
}

// decodeSimple parses an XSD lexical form into a new Go value of type t.
func decodeSimple(s string, t reflect.Type) (reflect.Value, error) {
	v := reflect.New(t).Elem()
	if err := setSimple(v, []byte(s)); err != nil {
		return reflect.Value{}, err
	}
	return v, nil
}

func roundTripSimple(t *testing.T, v interface{}) interface{} {
	t.Helper()
	rv := reflect.ValueOf(v)
	s, err := EncodeSimple(rv)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	back, err := decodeSimple(s, rv.Type())
	if err != nil {
		t.Fatalf("decode %q into %T: %v", s, v, err)
	}
	return back.Interface()
}

func TestSimpleRoundTrips(t *testing.T) {
	if got := roundTripSimple(t, "héllo <world>"); got != "héllo <world>" {
		t.Errorf("string: %v", got)
	}
	if got := roundTripSimple(t, int64(-42)); got != int64(-42) {
		t.Errorf("int64: %v", got)
	}
	if got := roundTripSimple(t, uint16(65535)); got != uint16(65535) {
		t.Errorf("uint16: %v", got)
	}
	if got := roundTripSimple(t, 3.14159); got != 3.14159 {
		t.Errorf("float64: %v", got)
	}
	if got := roundTripSimple(t, true); got != true {
		t.Errorf("bool: %v", got)
	}
	ts := time.Date(2005, 4, 4, 12, 30, 0, 123456789, time.UTC)
	if got := roundTripSimple(t, ts); !got.(time.Time).Equal(ts) {
		t.Errorf("time: %v", got)
	}
	b := []byte{0, 1, 2, 255}
	if got := roundTripSimple(t, b); !reflect.DeepEqual(got, b) {
		t.Errorf("bytes: %v", got)
	}
}

func TestBooleanLexicalForms(t *testing.T) {
	boolT := reflect.TypeOf(true)
	for _, s := range []string{"true", "1"} {
		v, err := decodeSimple(s, boolT)
		if err != nil || !v.Bool() {
			t.Errorf("decode %q: %v %v", s, v, err)
		}
	}
	for _, s := range []string{"false", "0"} {
		v, err := decodeSimple(s, boolT)
		if err != nil || v.Bool() {
			t.Errorf("decode %q: %v %v", s, v, err)
		}
	}
	if _, err := decodeSimple("TRUE", boolT); err == nil {
		t.Error("TRUE is not a valid xsd boolean")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		s string
		t reflect.Type
	}{
		{"abc", reflect.TypeOf(0)},
		{"-1", reflect.TypeOf(uint(0))},
		{"1e999", reflect.TypeOf(float64(0))},
		{"300", reflect.TypeOf(int8(0))},
		{"not-a-date", reflect.TypeOf(time.Time{})},
		{"!!!", reflect.TypeOf([]byte(nil))},
		{"x", reflect.TypeOf(map[string]int{})},
	}
	for _, c := range cases {
		if _, err := decodeSimple(c.s, c.t); err == nil {
			t.Errorf("decodeSimple(%q, %v): expected error", c.s, c.t)
		}
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		s, err := EncodeSimple(reflect.ValueOf(n))
		if err != nil {
			return false
		}
		v, err := decodeSimple(s, reflect.TypeOf(n))
		return err == nil && v.Int() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true // NaN != NaN; lexical round trip still works but skip
		}
		s, err := EncodeSimple(reflect.ValueOf(x))
		if err != nil {
			return false
		}
		v, err := decodeSimple(s, reflect.TypeOf(x))
		return err == nil && v.Float() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		s, err := EncodeSimple(reflect.ValueOf(b))
		if err != nil {
			return false
		}
		v, err := decodeSimple(s, reflect.TypeOf(b))
		if err != nil {
			return false
		}
		got := v.Bytes()
		if len(got) != len(b) {
			return false
		}
		for i := range b {
			if got[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
