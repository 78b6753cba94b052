package engine

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"wspeer/internal/wsdl"
)

// Stamp reaches every form the schema generator has: a dateTime, a
// base64Binary, an optional and a repeated simple value, and a repeated
// named complexType.
type Stamp struct {
	When  time.Time
	Blob  []byte
	Note  *string
	Count uint16
	Recs  []Rec
	Codes []int32
}

// The generated WSDL documents are pinned byte for byte in
// internal/wsdl/testdata, as the writer writes them, with no whitespace
// between tags.
func TestGeneratedWSDLGolden(t *testing.T) {
	echo := ServiceDef{Name: "Echo", Operations: []OperationDef{{
		Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
	}}}
	records := recordsDef()
	records.Operations = append(records.Operations, OperationDef{
		Name: "stamp", Func: func(s Stamp) Stamp { return s }, ParamNames: []string{"in"},
	})
	for _, tc := range []struct {
		file      string
		def       ServiceDef
		transport string
		address   string
	}{
		{"echo_http.wsdl", echo, wsdl.TransportHTTP, "http://127.0.0.1:8080/services/Echo"},
		{"echo_httpg.wsdl", echo, wsdl.TransportHTTPG, "httpg://127.0.0.1:8443/services/Echo"},
		{"echo_p2ps.wsdl", echo, wsdl.TransportP2PS, "p2ps://urn:p2ps:peer:0123456789abcdef/Echo"},
		{"records.wsdl", records, wsdl.TransportHTTP, "http://127.0.0.1:8080/services/Records"},
		{"oneway_doc.wsdl", echoDef(), wsdl.TransportInMem, "mem://host/services/Echo"},
	} {
		svc, err := New().Deploy(tc.def)
		if err != nil {
			t.Fatal(err)
		}
		defs, err := svc.WSDL(tc.transport, tc.address)
		if err != nil {
			t.Fatal(err)
		}
		got, err := defs.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "wsdl", "testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", tc.file, got, want)
		}
	}
}
