package core

// This file encodes the information-leakage model of the paper's §7.1
// (Tables 3 and 4): which structural quantities each notional party
// learns under each configuration of physical parties, plus helpers that
// demonstrate the leakage is real by inferring those quantities from
// nothing but the *shape* of the encrypted artifacts.

// Party is one of the three notional parties.
type Party int

// The notional parties: Sally evaluates, Maurice owns the model, Diane
// owns the features.
const (
	PartyServer     Party = iota // Sally
	PartyModelOwner              // Maurice
	PartyDataOwner               // Diane
)

// Scenario is a configuration of physical parties (§7.1).
type Scenario int

const (
	// ScenarioOffload: M = D, separate server (the classic computation
	// offloading model benchmarked in Figures 6–8).
	ScenarioOffload Scenario = iota
	// ScenarioServerModel: S = M, the model lives in plaintext on the
	// server (Figure 9's fast configuration).
	ScenarioServerModel
	// ScenarioClientEval: S = D, the client evaluates an encrypted model.
	ScenarioClientEval
	// ScenarioThreeParty: all parties distinct, no collusion.
	ScenarioThreeParty
	// ScenarioColludeSM: three parties, server colludes with the model
	// owner.
	ScenarioColludeSM
	// ScenarioColludeSD: three parties, server colludes with the data
	// owner.
	ScenarioColludeSD
)

// Leakage lists what a party learns: the structural quantities of
// §4.1.1, or everything (on collusion, the colluders can decrypt the
// other party's ciphertexts).
type Leakage struct {
	Q, B, D, K bool
	Everything bool
}

// Revealed returns the leakage table entry for scenario s and party p,
// transcribing Tables 3 and 4.
func Revealed(s Scenario, p Party) Leakage {
	switch s {
	case ScenarioOffload: // Table 3 row 1: S learns q, b, d.
		if p == PartyServer {
			return Leakage{Q: true, B: true, D: true}
		}
		return Leakage{}
	case ScenarioServerModel: // Table 3 row 2: D learns K, b.
		if p == PartyDataOwner {
			return Leakage{K: true, B: true}
		}
		return Leakage{}
	case ScenarioClientEval: // Table 3 row 3.
		switch p {
		case PartyServer:
			return Leakage{Q: true, B: true, K: true, D: true}
		case PartyDataOwner:
			return Leakage{Q: true, B: true, K: true}
		}
		return Leakage{}
	case ScenarioThreeParty: // Table 4 row 1.
		switch p {
		case PartyServer:
			return Leakage{Q: true, B: true, D: true, K: true}
		case PartyDataOwner:
			return Leakage{K: true, B: true}
		}
		return Leakage{}
	case ScenarioColludeSM: // Table 4 row 2.
		switch p {
		case PartyServer, PartyModelOwner:
			return Leakage{Q: true, B: true, D: true, K: true, Everything: true}
		case PartyDataOwner:
			return Leakage{K: true, B: true}
		}
		return Leakage{}
	case ScenarioColludeSD: // Table 4 row 3.
		switch p {
		case PartyServer, PartyDataOwner:
			return Leakage{Q: true, B: true, D: true, K: true, Everything: true}
		}
		return Leakage{}
	}
	return Leakage{}
}

// ServerView is what the evaluator can read off an encrypted model
// without any key material: the shapes of the ciphertext collections.
// Matrices are sent as one ciphertext per (padded) diagonal, so the
// padded widths leak; level matrices and masks are stored as ⌈D/(h·G)⌉
// stacked sets of h lanes × G groups each, so the depth leaks up to the
// identity lanes that pad the last set, which the server cannot tell from
// real ones (§7.1).
type ServerView struct {
	QPad int // columns of the reshuffling matrix
	BPad int // columns of each level matrix
	D    int // level lanes staged: the number of level matrices, rounded up to fill the last stacked set
	P    int // bit planes of the threshold vector (precision)
}

// InferServerView derives the view from artifact shapes only — the
// executable demonstration that Table 3's "revealed to S" column is
// real. It never touches plaintext or keys. The level lanes are those of
// the staging a query runs on, h·G·m; a model with lane groups is staged
// twice (Meta.LevelLayout) and the server holds both, so it reads the
// tighter of the two bounds.
func InferServerView(m *ModelOperands) ServerView {
	lanes, _ := m.Meta.LevelLanes()
	d := len(m.Levels) * lanes
	if lv := m.grouped; lv != nil {
		d = min(d, len(lv.mats)*lv.lanes*lv.groups)
	}
	return ServerView{
		QPad: m.Reshuffle.Period,
		BPad: periodOfLevels(m),
		D:    d,
		P:    len(m.Thresholds),
	}
}

func periodOfLevels(m *ModelOperands) int {
	if len(m.Levels) == 0 {
		return 0
	}
	return m.Levels[0].Period
}

// DataOwnerView is what the data owner learns from the protocol: the
// maximum multiplicity K (needed to pad her features, §3.3 step 0) and
// the result vector length, which reveals the leaf count.
type DataOwnerView struct {
	K         int
	NumLeaves int
}

// InferDataOwnerView derives Diane's view from the public query
// parameters.
func InferDataOwnerView(meta *Meta) DataOwnerView {
	return DataOwnerView{K: meta.K, NumLeaves: meta.NumLeaves}
}
