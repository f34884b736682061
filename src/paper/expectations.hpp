// Every quantitative claim the paper makes, as named constants.  The
// paper entries print each next to the measured value and EXPERIMENTS.md
// records the comparison; the checks assert the *shape* criteria (who
// wins, rough factors, crossovers), never exact counts.
#pragma once

namespace titan::paper {

// Observation 1 / Fig. 2.
inline constexpr double kDbeMtbfHours = 160.0;          // "approx. one DBE per week"
inline constexpr double kDbeMtbfToleranceFactor = 1.5;  // shape acceptance band

// Fig. 3(c) / Observation 3.
inline constexpr double kDbeDeviceMemoryShare = 0.86;
inline constexpr double kDbeRegisterFileShare = 0.14;

// Fig. 3(b) / Fig. 5: upper cages see more DBEs/OTBs than lower cages.
inline constexpr double kCageRatioAtLeast = 1.15;  // top/bottom, qualitative

// Fig. 4: OTB collapses after the Dec'2013 soldering rework.
inline constexpr double kOtbPostFixShareAtMost = 0.25;

// Fig. 6: retirement XIDs only exist from Jan'2014.
// Fig. 8: 18 retirements within 10 min of a DBE, 1 in (10 min, 6 h],
// 18 beyond; 17 successive-DBE pairs without a retirement between.
inline constexpr int kRetirementsWithin10Min = 18;
inline constexpr int kRetirements10MinTo6h = 1;
inline constexpr int kRetirementsBeyond6h = 18;
inline constexpr int kDbePairsWithoutRetirement = 17;

// Fig. 9: XIDs 32 and 38 occurred fewer than ten times; XID 42 never.
inline constexpr int kXid32AtMost = 10;
inline constexpr int kXid38AtMost = 10;
inline constexpr int kXid42Exactly = 0;

// Observation 6: user-application XIDs are bursty; driver XIDs are not.
// (Index of dispersion of daily counts; Poisson == 1.)
inline constexpr double kBurstyDispersionAtLeast = 3.0;
inline constexpr double kNonBurstyDispersionAtMost = 2.0;

// Observation 7: job-wide propagation within five seconds.
inline constexpr double kPropagationWindowS = 5.0;

// Observation 10 / Figs. 14-15.
inline constexpr double kSbeCardFractionAtMost = 0.05;  // "< 5% of the system"
// Removing top-50 offenders must homogenize the spatial distribution
// (coefficient of variation drops by at least this factor).
inline constexpr double kSkewDropFactorAtLeast = 2.0;

// Section 4 correlations.
inline constexpr double kMemorySpearmanBelow = 0.50;        // Figs. 16-17
inline constexpr double kNodesSpearman = 0.57;              // Fig. 18
inline constexpr double kCoreHoursSpearman = 0.70;          // Fig. 19
inline constexpr double kUserSpearman = 0.80;               // Fig. 20
inline constexpr double kExclTop10SpearmanBelow = 0.50;     // Figs. 18-19 excl.

}  // namespace titan::paper
