/**
 * @file
 * Small statistics accumulators used by trainers, timing models, and
 * bench harnesses.
 */
#ifndef DBSCORE_COMMON_STATS_H
#define DBSCORE_COMMON_STATS_H

#include <cstddef>
#include <limits>
#include <vector>

namespace dbscore {

/** Streaming mean/variance/min/max accumulator (Welford's algorithm). */
class RunningStats {
 public:
    void Add(double x);

    std::size_t count() const { return count_; }
    double mean() const { return mean_; }

    /** Sample variance (n-1 denominator); 0 when count < 2. */
    double Variance() const;
    double Stddev() const;

    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return sum_; }

 private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Exact quantiles over a retained sample vector, so memory grows with
 * every sample: for offline use (bench sweeps, path-length samples).
 * Long-running services record into bounded histograms instead.
 */
class QuantileSketch {
 public:
    void
    Add(double x)
    {
        values_.push_back(x);
        sorted_ = false;
    }

    std::size_t count() const { return values_.size(); }

    /** q in [0, 1]; linear interpolation between order statistics. */
    double Quantile(double q) const;

    double Median() const { return Quantile(0.5); }

 private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = false;
};

}  // namespace dbscore

#endif  // DBSCORE_COMMON_STATS_H
