package main

import (
	"math/rand"
)

// Rec is the record type of the http_records_large workload. Every field
// is generated at a fixed width so that payload size — and with it bytes
// and allocations per op — does not depend on the seed.
type Rec struct {
	ID    int64
	Name  string
	Score float64
	Tags  []string
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// genString returns n seeded alphanumeric bytes.
func genString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[r.Intn(len(alnum))]
	}
	return string(b)
}

func genStrings(r *rand.Rand, count, n int) []string {
	out := make([]string, count)
	for i := range out {
		out[i] = genString(r, n)
	}
	return out
}

// genNames returns count distinct service names (valid XML NCNames of one
// length), prefix first so that they start with a letter.
func genNames(r *rand.Rand, count int, prefix string) []string {
	seen := make(map[string]bool, count)
	out := make([]string, 0, count)
	for len(out) < count {
		n := prefix + genString(r, 8)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// genRecs returns n records: a 13-digit ID, a 24-byte name, a score that
// always prints as ddd.ddd and two 8-byte tags.
func genRecs(r *rand.Rand, n int) []Rec {
	out := make([]Rec, n)
	for i := range out {
		out[i] = Rec{
			ID:    1e12 + r.Int63n(9e12),
			Name:  genString(r, 24),
			Score: float64(100000+r.Intn(90000)*10+1+r.Intn(9)) / 1000,
			Tags:  []string{genString(r, 8), genString(r, 8)},
		}
	}
	return out
}

func reverseRecs(in []Rec) []Rec {
	out := make([]Rec, len(in))
	for i, rec := range in {
		out[len(in)-1-i] = rec
	}
	return out
}

// recsReversed reports whether got is want reversed, field for field.
func recsReversed(want, got []Rec) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		w, g := want[i], got[len(got)-1-i]
		if w.ID != g.ID || w.Name != g.Name || w.Score != g.Score || len(w.Tags) != len(g.Tags) {
			return false
		}
		for j := range w.Tags {
			if w.Tags[j] != g.Tags[j] {
				return false
			}
		}
	}
	return true
}
