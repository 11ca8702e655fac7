package main

import "testing"

func TestTrialOrderRoundRobin(t *testing.T) {
	got := trialOrder(workloads, 3)
	if len(got) != 3*len(workloads) {
		t.Fatalf("%d steps, want %d", len(got), 3*len(workloads))
	}
	for i, st := range got {
		want := workloads[i%len(workloads)]
		if st.workload != want || st.trial != i/len(workloads) {
			t.Errorf("step %d: %s trial %d, want %s trial %d", i, st.workload.name, st.trial, want.name, i/len(workloads))
		}
	}
}
