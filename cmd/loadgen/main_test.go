package main

import (
	"slices"
	"testing"
)

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"lfr:n=2000,mu=0.3|plm", []string{"lfr:n=2000,mu=0.3|plm"}},
		{"lfr:n=2000,mu=0.3,seed=7|plm;sbm:n=1000,comms=8|seq-louvain",
			[]string{"lfr:n=2000,mu=0.3,seed=7|plm", "sbm:n=1000,comms=8|seq-louvain"}},
		{" ring:k=8,s=6 ; lfr:n=500,mu=0.2|leiden; ", []string{"ring:k=8,s=6", "lfr:n=500,mu=0.2|leiden"}},
	} {
		got, err := parseMix(tc.in)
		if err != nil {
			t.Errorf("parseMix(%q): %v", tc.in, err)
			continue
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("parseMix(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", ";;", "|plm", "lfr:n=500|plm|seq"} {
		if got, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) = %q, want an error", bad, got)
		}
	}
}
