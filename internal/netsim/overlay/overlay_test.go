package overlay

import "testing"

func TestBuildOverlayValidation(t *testing.T) {
	o, err := Build(Config{Seed: 1, Providers: 4, Rendezvous: 0, Mode: Central})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rdvs) != 1 {
		t.Fatalf("rendezvous defaulted to %d", len(o.Rdvs))
	}
	// Homes beyond available rendezvous are clamped.
	o, err = Build(Config{Seed: 1, Providers: 4, Rendezvous: 2, Homes: 5, Mode: Mesh})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Providers) != 4 {
		t.Fatalf("providers = %d", len(o.Providers))
	}
}

func TestServiceName(t *testing.T) {
	if ServiceName(7) != "Svc-0007" {
		t.Fatalf("ServiceName = %q", ServiceName(7))
	}
}
