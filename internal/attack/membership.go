package attack

import (
	"sort"

	"fedcdp/internal/tensor"
)

// Membership inference (Shokri et al., Yeom et al.) is the second class of
// gradient-leakage threat the paper's related work surveys: an adversary
// with query access to the trained federated model decides whether a given
// example was part of a client's training data. This file implements the
// loss-threshold attack — members systematically incur lower loss — and the
// membership-advantage metric used to evaluate how much differential
// privacy (Fed-CDP) suppresses it.

// Sample is one labelled example for membership evaluation.
type Sample struct {
	X *tensor.Tensor
	Y int
}

// LossFn scores one example under the attacked model (lower = more
// member-like). nn.Model.Loss and MLP loss both fit.
type LossFn func(x *tensor.Tensor, label int) float64

// MembershipResult reports the loss-threshold attack's effectiveness.
type MembershipResult struct {
	// Advantage is TPR − FPR at the best threshold: 0 = no leakage (the DP
	// ideal), 1 = perfect membership disclosure.
	Advantage float64
	// TPR and FPR at the chosen threshold.
	TPR, FPR float64
	// Threshold is the loss value below which examples are called members.
	Threshold float64
	// AUC is the area under the ROC curve of the loss scores.
	AUC float64
}

// MembershipInference mounts the loss-threshold attack: it scores members
// and non-members, sweeps all thresholds, and reports the maximum
// membership advantage. It panics if either set is empty.
func MembershipInference(loss LossFn, members, nonMembers []Sample) MembershipResult {
	if len(members) == 0 || len(nonMembers) == 0 {
		panic("attack: membership inference needs non-empty member and non-member sets")
	}
	type scored struct {
		loss   float64
		member bool
	}
	all := make([]scored, 0, len(members)+len(nonMembers))
	for _, s := range members {
		all = append(all, scored{loss.score(s), true})
	}
	for _, s := range nonMembers {
		all = append(all, scored{loss.score(s), false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].loss < all[j].loss })

	nM, nN := float64(len(members)), float64(len(nonMembers))
	best := MembershipResult{}
	var tp, fp float64
	var auc float64
	// Sweep thresholds in increasing loss order; also accumulate AUC via the
	// rank statistic.
	prevFPR, prevTPR := 0.0, 0.0
	for _, s := range all {
		if s.member {
			tp++
		} else {
			fp++
		}
		tpr, fpr := tp/nM, fp/nN
		if adv := tpr - fpr; adv > best.Advantage {
			best = MembershipResult{Advantage: adv, TPR: tpr, FPR: fpr, Threshold: s.loss}
		}
		auc += float64((fpr - prevFPR) * (tpr + prevTPR) / 2)
		prevFPR, prevTPR = fpr, tpr
	}
	best.AUC = auc
	return best
}

func (f LossFn) score(s Sample) float64 { return f(s.X, s.Y) }
