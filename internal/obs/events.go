package obs

// Event kinds emitted by the SID pipeline. Node IDs are plain ints here so
// the journal format does not depend on the wsn package (and so external
// tools can decode it with nothing but this file).
const (
	// KindNodeWindow is a completed Δt anomaly-evaluation window that
	// contained at least one threshold crossing (payload: NodeWindow).
	// Quiet windows are not journaled — at 50 Hz they would dominate the
	// ring without carrying information.
	KindNodeWindow = "node.window"
	// KindNodeReport is a node-level detection — a window whose anomaly
	// frequency passed the af threshold (payload: NodeReport).
	KindNodeReport = "node.report"
	// KindClusterSetup is a node promoting itself to temporary cluster
	// head (payload: ClusterSetup).
	KindClusterSetup = "cluster.setup"
	// KindClusterJoin is a node accepting a cluster invite (payload:
	// ClusterJoin).
	KindClusterJoin = "cluster.join"
	// KindReportSend is a member sending its report to its head (payload:
	// ReportSend).
	KindReportSend = "report.send"
	// KindReportAccept is a head folding a member report into its
	// collection, after per-node deduplication (payload: ReportAccept).
	KindReportAccept = "report.accept"
	// KindClusterExtend is a head spending its one-time collection
	// deadline extension (payload: ClusterExtend).
	KindClusterExtend = "cluster.extend"
	// KindClusterCancel is a collection ending without an evaluation —
	// too few reports, or the head died holding the role (payload:
	// ClusterCancel).
	KindClusterCancel = "cluster.cancel"
	// KindClusterEval is a head's correlation evaluation: C = C_Nt × C_Ne
	// with the sweep and order-tau gate inputs (payload: ClusterEval).
	KindClusterEval = "cluster.eval"
	// KindSpeedFit is one candidate-heading least-squares fit of the
	// speed estimator's reflection-ambiguity resolution (payload:
	// SpeedFit). The chosen candidate is marked.
	KindSpeedFit = "speed.fit"
	// KindSinkReport is the sink receiving a confirmed intrusion
	// (payload: SinkReport).
	KindSinkReport = "sink.report"
	// KindFailoverElect is a member claiming a dead head's role (payload:
	// FailoverElect).
	KindFailoverElect = "failover.elect"
	// KindArqRetransmit is a timeout-driven ARQ retransmission (payload:
	// ArqHop).
	KindArqRetransmit = "arq.retransmit"
	// KindArqAck is an ARQ acknowledgment transmission (payload: ArqHop).
	KindArqAck = "arq.ack"
	// KindArqDrop is a reliable hop abandoned — retransmissions exhausted
	// or the sender died (payload: ArqDrop).
	KindArqDrop = "arq.drop"
	// KindSendError is a synchronous send failure the protocol observed
	// (payload: SendError).
	KindSendError = "send.error"
	// KindByzantineInject is a compromised node injecting a fabricated or
	// replayed report into the protocol (payload: ByzantineInject). Emitted
	// by the adversary layer, not the defenses — it records ground truth
	// about the attack, which is what lets a journal reader audit whether
	// the defenses caught it.
	KindByzantineInject = "adversary.inject"
	// KindReportReject is a head's defense layer refusing a report —
	// quarantined origin, stale or future onset (payload: ReportReject).
	KindReportReject = "report.reject"
	// KindSuspicion is a node's suspicion score changing — a freshness
	// rejection or a trimmed-by-consensus verdict — possibly crossing into
	// quarantine (payload: Suspicion).
	KindSuspicion = "defense.suspect"
	// KindSummaryFlush is a sub-cluster head forwarding its buffered member
	// reports to a collection head as one summary (payload: SummaryFlush).
	KindSummaryFlush = "hier.summary"
	// KindMetrics is a registry snapshot embedded in the journal, usually
	// once at end of run (payload: Snapshot).
	KindMetrics = "metrics"
)

// NodeWindow is the payload of KindNodeWindow: one anomaly window with its
// EWMA context — the moving mean m′_T and deviation d′_T behind the
// threshold in force, which is what makes a "why did this (not) trip"
// question answerable from the journal alone.
type NodeWindow struct {
	Node      int     `json:"node"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	AF        float64 `json:"af"`
	Crossings int     `json:"crossings"`
	Energy    float64 `json:"energy"`
	Onset     float64 `json:"onset"`
	Threshold float64 `json:"threshold"`
	Mean      float64 `json:"mean"`
	Std       float64 `json:"std"`
}

// NodeReport is the payload of KindNodeReport.
type NodeReport struct {
	Node   int     `json:"node"`
	Row    int     `json:"row"`
	Onset  float64 `json:"onset"`
	Energy float64 `json:"energy"`
	AF     float64 `json:"af"`
}

// ClusterSetup is the payload of KindClusterSetup. Onset is the head's
// own report onset (head-local time) — the detection that formed the
// cluster. The cluster's trace key is ClusterKey(Head, Deadline).
type ClusterSetup struct {
	Head     int     `json:"head"`
	Deadline float64 `json:"deadline"`
	Onset    float64 `json:"onset"`
}

// ClusterJoin is the payload of KindClusterJoin.
type ClusterJoin struct {
	Node  int     `json:"node"`
	Head  int     `json:"head"`
	Until float64 `json:"until"`
}

// ReportSend is the payload of KindReportSend. Resend marks a member
// re-sending its retained report to a head elected by failover.
type ReportSend struct {
	Node   int     `json:"node"`
	Head   int     `json:"head"`
	Onset  float64 `json:"onset"`
	Energy float64 `json:"energy"`
	Resend bool    `json:"resend,omitempty"`
}

// ReportAccept is the payload of KindReportAccept. First reports whether
// this was the node's first report of the collection (false: the head's
// per-node deduplication merged it into an existing entry).
type ReportAccept struct {
	Head   int     `json:"head"`
	Node   int     `json:"node"`
	Onset  float64 `json:"onset"`
	Energy float64 `json:"energy"`
	First  bool    `json:"first"`
}

// ClusterExtend is the payload of KindClusterExtend.
type ClusterExtend struct {
	Head     int     `json:"head"`
	Deadline float64 `json:"deadline"`
}

// ClusterCancel is the payload of KindClusterCancel.
type ClusterCancel struct {
	Head    int    `json:"head"`
	Reports int    `json:"reports"`
	Reason  string `json:"reason"`
}

// ClusterEval is the payload of KindClusterEval: the correlation outcome
// with every gate input (eq. 13's C = C_Nt × C_Ne, the sweep statistic,
// and the order-tau gate).
type ClusterEval struct {
	Head      int     `json:"head"`
	Reports   int     `json:"reports"`
	C         float64 `json:"c"`
	CNt       float64 `json:"c_nt"`
	CNe       float64 `json:"c_ne"`
	Sweep     float64 `json:"sweep"`
	OrderTau  float64 `json:"order_tau"`
	RowsUsed  int     `json:"rows_used"`
	RowsTotal int     `json:"rows_total"`
	Detected  bool    `json:"detected"`
	Err       string  `json:"err,omitempty"`
}

// SpeedFit is the payload of KindSpeedFit: one candidate heading of the
// estimator's arrival-law fit. Slope is the fitted 1/v (s/m); SSE the
// residual sum of squares; Chosen marks the winning candidate.
type SpeedFit struct {
	Head     int     `json:"head"`
	AlphaRad float64 `json:"alpha_rad"`
	Slope    float64 `json:"slope"`
	SSE      float64 `json:"sse"`
	OK       bool    `json:"ok"`
	Chosen   bool    `json:"chosen"`
}

// SinkReport is the payload of KindSinkReport. Trace is the confirmed
// cluster's key, carried by the frame: Head alone cannot name the cluster,
// since the head may have formed a newer one while this report was in
// flight.
type SinkReport struct {
	Head      int     `json:"head"`
	C         float64 `json:"c"`
	Reports   int     `json:"reports"`
	MeanOnset float64 `json:"mean_onset"`
	HasSpeed  bool    `json:"has_speed"`
	Speed     float64 `json:"speed,omitempty"`
	Heading   float64 `json:"heading,omitempty"`
	Trace     string  `json:"trace,omitempty"`
}

// FailoverElect is the payload of KindFailoverElect.
type FailoverElect struct {
	Old int `json:"old"`
	New int `json:"new"`
}

// ArqHop is the payload of KindArqRetransmit and KindArqAck. For a
// retransmission, From/To are the data direction, Attempt counts
// retransmissions so far (1 = first retransmission), Wait is the backed-off
// timeout armed before the next one, and Trace is the cluster key stamped
// on the frame (empty for frames outside any detection trace); for an
// ACK, From is the acknowledging receiver.
type ArqHop struct {
	From    int     `json:"from"`
	To      int     `json:"to"`
	ARQ     uint64  `json:"arq"`
	Attempt int     `json:"attempt,omitempty"`
	Wait    float64 `json:"wait,omitempty"`
	Trace   string  `json:"trace,omitempty"`
}

// ArqDrop is the payload of KindArqDrop. Received reports whether the
// receiver had in fact consumed the frame (only the ACKs were lost), in
// which case the drop is bookkeeping, not data loss. Trace is the frame's
// cluster key, as in ArqHop.
type ArqDrop struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	ARQ      uint64 `json:"arq"`
	Received bool   `json:"received"`
	Reason   string `json:"reason"`
	Trace    string `json:"trace,omitempty"`
}

// SendError is the payload of KindSendError.
type SendError struct {
	Node int    `json:"node"`
	Err  string `json:"err"`
}

// ByzantineInject is the payload of KindByzantineInject: one injected
// report, with the behavior ("fabricate" or "replay") that produced it.
type ByzantineInject struct {
	Node     int     `json:"node"`
	Behavior string  `json:"behavior"`
	Onset    float64 `json:"onset"`
	Energy   float64 `json:"energy"`
}

// ReportReject is the payload of KindReportReject. Reason is one of
// "quarantined", "stale", "future", or "energy".
type ReportReject struct {
	Head   int     `json:"head"`
	Node   int     `json:"node"`
	Onset  float64 `json:"onset"`
	Energy float64 `json:"energy"`
	Reason string  `json:"reason"`
}

// Suspicion is the payload of KindSuspicion: a node's updated score after
// one more piece of evidence, and whether the update quarantined it.
type Suspicion struct {
	Node        int    `json:"node"`
	Score       int    `json:"score"`
	Reason      string `json:"reason"`
	Quarantined bool   `json:"quarantined"`
}

// SummaryFlush is the payload of KindSummaryFlush: a sub-cluster head
// draining its buffer of member reports toward one collection head.
type SummaryFlush struct {
	Sub     int `json:"sub"`
	Head    int `json:"head"`
	Reports int `json:"reports"`
}
