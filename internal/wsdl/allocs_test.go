package wsdl

import (
	"reflect"
	"strconv"
	"testing"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// serviceDefs builds, the way the engine does, the definitions of a service
// whose operations op0, op1, ... each take and return one string.
func serviceDefs(t testing.TB, name, address string, ops ...string) *Definitions {
	t.Helper()
	ns := "http://wspeer.dev/services/" + name
	str := reflect.TypeOf("")
	d := &Definitions{Name: name, TargetNamespace: ns, Schema: xsd.NewSchema(ns)}
	pt := &PortType{Name: name + "PortType"}
	b := &Binding{Name: name + "Binding", PortType: pt.Name, Transport: TransportHTTP}
	for _, op := range ops {
		if err := d.Schema.AddElement(op, []xsd.Field{{Name: "msg", Type: str}}); err != nil {
			t.Fatal(err)
		}
		if err := d.Schema.AddElement(op+"Response", []xsd.Field{{Name: "return", Type: str}}); err != nil {
			t.Fatal(err)
		}
		d.Messages = append(d.Messages,
			&Message{Name: op + "RequestMsg", Parts: []Part{{Name: "parameters", Element: xmlutil.N(ns, op)}}},
			&Message{Name: op + "ResponseMsg", Parts: []Part{{Name: "parameters", Element: xmlutil.N(ns, op+"Response")}}})
		pt.Operations = append(pt.Operations, &Operation{Name: op, Input: op + "RequestMsg", Output: op + "ResponseMsg"})
		b.Operations = append(b.Operations, BindingOperation{Name: op, SOAPAction: ns + "#" + op})
	}
	d.PortTypes, d.Bindings = []*PortType{pt}, []*Binding{b}
	d.Services = []*Service{{Name: name, Ports: []Port{{Name: name + "Port", Binding: b.Name, Address: address}}}}
	return d
}

// TestWSDLAllocs gates the allocations of writing and reading the echo
// WSDL (1.7 kB, 30 elements) and of reading an 8-operation one, whose
// schemas are kept as bytes. The tree renderer and the tree reader took
// 112, 122 and 614; schemas read as trees, 1, 51 and 235.
func TestWSDLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	echo := serviceDefs(t, "Echo", "http://127.0.0.1:8080/services/Echo", "echo")
	raw, err := echo.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "echo_http.wsdl"); string(raw) != string(want) {
		t.Fatalf("the echo definitions are not the engine's:\n%s", raw)
	}
	ops := make([]string, 8)
	for i := range ops {
		ops[i] = "op" + strconv.Itoa(i)
	}
	eight, err := serviceDefs(t, "Eight", "http://127.0.0.1:8080/services/Eight", ops...).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		max  float64
		run  func()
	}{
		{"Marshal of the echo WSDL", 5, func() { echo.Marshal() }},
		{"Parse of the echo WSDL", 27, func() { Parse(raw) }},
		{"Parse of an 8-operation WSDL", 41, func() { Parse(eight) }},
	} {
		tc.run()
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocations, want at most %v", tc.what, got, tc.max)
		} else {
			t.Logf("%s: %v allocations", tc.what, got)
		}
	}
}
