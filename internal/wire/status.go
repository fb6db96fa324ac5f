package wire

import "time"

// Condition is one typed convergence observation about a VM, as the
// controller keeps it on the VM's record and exposes it on the nova api
// status surface. At is the virtual-clock time of the last status
// transition.
//
// Conditions ride on the unsigned status reply, not on CustomerReport:
// the report's signed body is a fixed protocol artifact (Vid ‖ Prop ‖
// Verdict ‖ N1 ‖ Q1 ‖ Stale ‖ Age) that customers verify byte-for-byte,
// so the evolving operator-facing condition set stays out of it.
type Condition struct {
	Type    string        `json:"type"`
	Status  string        `json:"status"`
	Reason  string        `json:"reason,omitempty"`
	Message string        `json:"message,omitempty"`
	At      time.Duration `json:"at"`
}

// VMStatus is the nova api vm_status reply: the controller's declared
// desired state joined to its observed state through the condition set.
type VMStatus struct {
	Vid    string `json:"vid"`
	Owner  string `json:"owner"`
	Server string `json:"server,omitempty"`
	State  string `json:"state"`
	// Deleted reports the teardown finalizer: true from the moment
	// termination is declared until every external resource is released.
	Deleted bool `json:"deleted,omitempty"`
	// Finalized reports that teardown has fully converged.
	Finalized  bool        `json:"finalized,omitempty"`
	Conditions []Condition `json:"conditions,omitempty"`
}
