package model

import (
	"math"
	"sort"

	"xmtfft/internal/config"
)

// Sensitivity analysis: how robust are the Table IV projections to the
// calibration constants? Each parameter is perturbed over a relative
// range while the others stay at their calibrated values, and the worst
// resulting deviation from the paper's published GFLOPS is reported.
// This quantifies how much of the reproduction is "dialed in" versus
// structural: parameters whose ±20% swing still keeps every
// configuration within tolerance carry little risk of overfitting.

// SensitivityResult reports one parameter's effect.
type SensitivityResult struct {
	Param string
	// WorstDev is the largest |deviation| from the paper's Table IV over
	// all configurations when the parameter is scaled across Scales.
	Scales   []float64
	WorstDev float64
}

// Sensitivity sweeps each calibration parameter over the given relative
// scales (e.g. 0.8, 0.9, 1.1, 1.2) and reports the worst Table IV
// deviation induced.
func Sensitivity(scales []float64) ([]SensitivityResult, error) {
	type setter struct {
		name  string
		apply func(p *Params, s float64)
	}
	setters := []setter{
		{"StreamWriteBytes", func(p *Params, s float64) { p.StreamWriteBytes *= s }},
		{"RotationWriteAmp", func(p *Params, s float64) { p.RotationWriteAmp *= s }},
		{"NoCDataBytes", func(p *Params, s float64) { p.NoCDataBytes *= s }},
		{"NoCLevelFactor", func(p *Params, s float64) { p.NoCLevelFactor *= s }},
	}
	cfgs := config.Paper()
	out := make([]SensitivityResult, 0, len(setters))
	for _, st := range setters {
		res := SensitivityResult{Param: st.name, Scales: scales}
		for _, s := range scales {
			prm := Calibrated()
			st.apply(&prm, s)
			if prm.NoCLevelFactor > 1 {
				prm.NoCLevelFactor = 1
			}
			for _, c := range cfgs {
				p, err := Project(c, [3]int{PaperN, PaperN, PaperN}, prm)
				if err != nil {
					return nil, err
				}
				dev := math.Abs(p.GFLOPS-PaperTableIV[c.Name]) / PaperTableIV[c.Name]
				if dev > res.WorstDev {
					res.WorstDev = dev
				}
			}
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WorstDev > out[j].WorstDev })
	return out, nil
}
