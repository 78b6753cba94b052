package wsdl

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

const tns = "http://example.org/echo"

// echoDefs builds a complete Echo service description the way the engine
// does: schema wrappers, messages, portType, binding, service.
func echoDefs(t *testing.T) *Definitions {
	t.Helper()
	schema := xsd.NewSchema(tns)
	if err := schema.AddElement("Echo", []xsd.Field{{Name: "msg", Type: reflect.TypeOf("")}}); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddElement("EchoResponse", []xsd.Field{{Name: "return", Type: reflect.TypeOf("")}}); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddElement("Notify", []xsd.Field{{Name: "event", Type: reflect.TypeOf("")}}); err != nil {
		t.Fatal(err)
	}
	return &Definitions{
		Name:            "EchoService",
		TargetNamespace: tns,
		Schema:          schema,
		Messages: []*Message{
			{Name: "EchoRequestMsg", Parts: []Part{{Name: "parameters", Element: xmlutil.N(tns, "Echo")}}},
			{Name: "EchoResponseMsg", Parts: []Part{{Name: "parameters", Element: xmlutil.N(tns, "EchoResponse")}}},
			{Name: "NotifyMsg", Parts: []Part{{Name: "parameters", Element: xmlutil.N(tns, "Notify")}}},
		},
		PortTypes: []*PortType{{
			Name: "EchoPortType",
			Operations: []*Operation{
				{Name: "Echo", Input: "EchoRequestMsg", Output: "EchoResponseMsg", Doc: "echoes its input"},
				{Name: "Notify", Input: "NotifyMsg"}, // one-way
			},
		}},
		Bindings: []*Binding{{
			Name:      "EchoBinding",
			PortType:  "EchoPortType",
			Transport: TransportHTTP,
			Operations: []BindingOperation{
				{Name: "Echo", SOAPAction: tns + "#Echo"},
				{Name: "Notify", SOAPAction: tns + "#Notify"},
			},
		}},
		Services: []*Service{{
			Name: "EchoService",
			Ports: []Port{
				{Name: "EchoPort", Binding: "EchoBinding", Address: "http://127.0.0.1:8081/services/Echo"},
			},
		}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := echoDefs(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFailures(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Definitions)
	}{
		{"empty tns", func(d *Definitions) { d.TargetNamespace = "" }},
		{"dup message", func(d *Definitions) { d.Messages = append(d.Messages, d.Messages[0]) }},
		{"missing part element", func(d *Definitions) { d.Messages[0].Parts[0].Element = xmlutil.Name{} }},
		{"part references unknown schema element", func(d *Definitions) {
			d.Messages[0].Parts[0].Element = xmlutil.N(tns, "NoSuchElement")
		}},
		{"op unknown input", func(d *Definitions) { d.PortTypes[0].Operations[0].Input = "Nope" }},
		{"op unknown output", func(d *Definitions) { d.PortTypes[0].Operations[0].Output = "Nope" }},
		{"dup portType", func(d *Definitions) { d.PortTypes = append(d.PortTypes, d.PortTypes[0]) }},
		{"binding unknown portType", func(d *Definitions) { d.Bindings[0].PortType = "Nope" }},
		{"binding unknown op", func(d *Definitions) {
			d.Bindings[0].Operations = append(d.Bindings[0].Operations, BindingOperation{Name: "Nope"})
		}},
		{"port unknown binding", func(d *Definitions) { d.Services[0].Ports[0].Binding = "Nope" }},
		{"port empty address", func(d *Definitions) { d.Services[0].Ports[0].Address = "" }},
	}
	for _, m := range mutations {
		d := echoDefs(t)
		m.mut(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid definitions", m.name)
		}
	}
}

func TestGenerateParseRoundTrip(t *testing.T) {
	d := echoDefs(t)
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, data)
	}
	if back.Name != "EchoService" || back.TargetNamespace != tns {
		t.Fatalf("header: %+v", back)
	}
	if len(back.RawSchemas()) != 1 {
		t.Fatalf("schemas = %d", len(back.RawSchemas()))
	}
	if len(back.Messages) != 3 || back.Message("EchoRequestMsg") == nil {
		t.Fatalf("messages: %+v", back.Messages)
	}
	if back.Message("EchoRequestMsg").Parts[0].Element != xmlutil.N(tns, "Echo") {
		t.Fatalf("part element: %v", back.Message("EchoRequestMsg").Parts[0].Element)
	}
	pt := back.PortType("EchoPortType")
	if pt == nil || len(pt.Operations) != 2 {
		t.Fatalf("portType: %+v", pt)
	}
	echo := back.Operation("Echo")
	if echo == nil || echo.Input != "EchoRequestMsg" || echo.Output != "EchoResponseMsg" {
		t.Fatalf("op: %+v", echo)
	}
	if echo.Doc != "echoes its input" {
		t.Fatalf("doc lost: %q", echo.Doc)
	}
	notify := back.Operation("Notify")
	if notify == nil || !notify.OneWay() {
		t.Fatalf("one-way lost: %+v", notify)
	}
	b := back.Binding("EchoBinding")
	if b == nil || b.Transport != TransportHTTP || len(b.Operations) != 2 {
		t.Fatalf("binding: %+v", b)
	}
	svc := back.Service("EchoService")
	if svc == nil || svc.Ports[0].Address != "http://127.0.0.1:8081/services/Echo" {
		t.Fatalf("service: %+v", svc)
	}
	// The reparsed document must validate too.
	if err := back.Validate(); err != nil {
		t.Fatalf("reparsed validate: %v", err)
	}
}

func TestDetail(t *testing.T) {
	d := echoDefs(t)
	det, err := d.Detail("Echo")
	if err != nil {
		t.Fatal(err)
	}
	if det.Input != xmlutil.N(tns, "Echo") || det.Output != xmlutil.N(tns, "EchoResponse") {
		t.Fatalf("wrappers: %+v", det)
	}
	if det.SOAPAction != tns+"#Echo" {
		t.Fatalf("action: %q", det.SOAPAction)
	}
	if det.Address == "" || det.Transport != TransportHTTP {
		t.Fatalf("endpoint: %+v", det)
	}

	det, err = d.Detail("Notify")
	if err != nil {
		t.Fatal(err)
	}
	if !det.Output.IsZero() {
		t.Fatalf("one-way output should be zero: %+v", det)
	}

	if _, err := d.Detail("Missing"); err == nil {
		t.Fatal("missing op accepted")
	}
	// Operation defined but not bound by any port. Detail results are
	// memoized, so structural mutation requires explicit invalidation.
	d.Services = nil
	d.InvalidateDetails()
	if _, err := d.Detail("Echo"); err == nil {
		t.Fatal("unbound op accepted")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("<x/>")); err == nil {
		t.Fatal("non-wsdl accepted")
	}
	if _, err := Parse([]byte("not xml")); err == nil {
		t.Fatal("garbage accepted")
	}
	noTNS := `<wsdl:definitions xmlns:wsdl="` + Namespace + `"/>`
	if _, err := Parse([]byte(noTNS)); err == nil {
		t.Fatal("missing targetNamespace accepted")
	}
}

func TestGeneratedDocumentShape(t *testing.T) {
	data, err := echoDefs(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"definitions", "portType", `style="document"`, `use="literal"`, "soapAction"} {
		if !strings.Contains(s, want) {
			t.Errorf("generated WSDL missing %q:\n%s", want, s)
		}
	}
}

func TestLocalOfFallback(t *testing.T) {
	if got := localOf("undeclared:Thing"); got != "Thing" {
		t.Fatalf("fallback = %q", got)
	}
	if got := localOf(" Plain "); got != "Plain" {
		t.Fatalf("plain = %q", got)
	}
}

// Property: definitions built from arbitrary valid NCNames survive a
// marshal/parse round trip with detail resolution intact.
func TestQuickGenerateParseRoundTrip(t *testing.T) {
	ident := func(s string, fallback string) string {
		var b strings.Builder
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(b.Len() > 0 && r >= '0' && r <= '9') {
				b.WriteRune(r)
			}
			if b.Len() >= 24 {
				break
			}
		}
		if b.Len() == 0 {
			return fallback
		}
		return b.String()
	}
	f := func(svcRaw, opRaw string) bool {
		svcName := ident(svcRaw, "Svc")
		opName := ident(opRaw, "op")
		if svcName == opName {
			opName += "Op"
		}
		schema := xsd.NewSchema(tns)
		if err := schema.AddElement(opName, []xsd.Field{{Name: "in0", Type: reflect.TypeOf("")}}); err != nil {
			return false
		}
		if err := schema.AddElement(opName+"Response", []xsd.Field{{Name: "return", Type: reflect.TypeOf("")}}); err != nil {
			return false
		}
		d := &Definitions{
			Name:            svcName,
			TargetNamespace: tns,
			Schema:          schema,
			Messages: []*Message{
				{Name: opName + "In", Parts: []Part{{Name: "p", Element: xmlutil.N(tns, opName)}}},
				{Name: opName + "Out", Parts: []Part{{Name: "p", Element: xmlutil.N(tns, opName+"Response")}}},
			},
			PortTypes: []*PortType{{Name: svcName + "PT", Operations: []*Operation{
				{Name: opName, Input: opName + "In", Output: opName + "Out"},
			}}},
			Bindings: []*Binding{{Name: svcName + "B", PortType: svcName + "PT",
				Transport:  TransportHTTP,
				Operations: []BindingOperation{{Name: opName, SOAPAction: tns + "#" + opName}}}},
			Services: []*Service{{Name: svcName, Ports: []Port{
				{Name: "P", Binding: svcName + "B", Address: "http://h/" + svcName},
			}}},
		}
		raw, err := d.Marshal()
		if err != nil {
			return false
		}
		back, err := Parse(raw)
		if err != nil {
			return false
		}
		det, err := back.Detail(opName)
		if err != nil {
			return false
		}
		return det.Input == xmlutil.N(tns, opName) && det.Address == "http://h/"+svcName
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
