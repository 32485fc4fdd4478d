/**
 * @file
 * Simulated time and unit helpers.
 *
 * All modeled latencies in dbscore are SimTime values: a strongly typed
 * wrapper over double seconds. A dedicated type (instead of bare double)
 * keeps units explicit at API boundaries and catches accidental mixing of
 * seconds with bytes or cycles.
 */
#ifndef DBSCORE_COMMON_SIM_TIME_H
#define DBSCORE_COMMON_SIM_TIME_H

#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include "dbscore/common/error.h"

namespace dbscore {

/** A simulated duration. Always non-negative in well-formed breakdowns. */
class SimTime {
 public:
    constexpr SimTime() : seconds_(0.0) {}

    /** Named constructors keep units explicit at every call site. */
    static constexpr SimTime Seconds(double s) { return SimTime(s); }
    static constexpr SimTime Millis(double ms) { return SimTime(ms * 1e-3); }
    static constexpr SimTime Micros(double us) { return SimTime(us * 1e-6); }
    static constexpr SimTime Nanos(double ns) { return SimTime(ns * 1e-9); }

    /** Duration of @p cycles at @p hz clock frequency. */
    static constexpr SimTime
    Cycles(double cycles, double hz)
    {
        return SimTime(cycles / hz);
    }

    constexpr double seconds() const { return seconds_; }
    constexpr double millis() const { return seconds_ * 1e3; }
    constexpr double micros() const { return seconds_ * 1e6; }
    constexpr double nanos() const { return seconds_ * 1e9; }

    constexpr bool is_zero() const { return seconds_ == 0.0; }

    constexpr SimTime
    operator+(SimTime other) const
    {
        return SimTime(seconds_ + other.seconds_);
    }

    constexpr SimTime
    operator-(SimTime other) const
    {
        return SimTime(seconds_ - other.seconds_);
    }

    constexpr SimTime operator*(double k) const { return SimTime(seconds_ * k); }
    constexpr SimTime operator/(double k) const { return SimTime(seconds_ / k); }

    /** Ratio of two durations (e.g. a speedup). */
    constexpr double operator/(SimTime other) const
    {
        return seconds_ / other.seconds_;
    }

    SimTime& operator+=(SimTime other)
    {
        seconds_ += other.seconds_;
        return *this;
    }

    SimTime& operator-=(SimTime other)
    {
        seconds_ -= other.seconds_;
        return *this;
    }

    constexpr auto operator<=>(const SimTime&) const = default;

    /**
     * Human-readable rendering to 3 significant digits with an
     * auto-selected unit, e.g. "1.5 ms" or "312 ns". The unit is
     * settled after rounding, so a value that rounds up to 1000 of one
     * unit prints as 1 of the next ("1 s", not "1e+03 ms"), and no
     * value prints an exponent: 1000 s and above print whole seconds.
     */
    std::string
    ToString() const
    {
        static constexpr double kPerSecond[] = {1.0, 1e3, 1e6, 1e9};
        static constexpr const char* kUnit[] = {" s", " ms", " us", " ns"};
        const double abs = std::fabs(seconds_);
        int unit = abs >= 1.0 ? 0 : abs >= 1e-3 ? 1 : abs >= 1e-6 ? 2 : 3;
        std::string digits = Digits(seconds_ * kPerSecond[unit]);
        if (unit > 0 && std::fabs(std::stod(digits)) >= 1000.0) {
            --unit;
            digits = Digits(seconds_ * kPerSecond[unit]);
        }
        return digits + kUnit[unit];
    }

 private:
    explicit constexpr SimTime(double s) : seconds_(s) {}

    /** @p v to 3 significant digits, in fixed notation where %.3g
     * would pick an exponent (|v| >= 999.5 or below 1e-4). */
    static std::string
    Digits(double v)
    {
        std::ostringstream os;
        os.precision(3);
        os << v;
        std::string out = os.str();
        if (out.find('e') == std::string::npos) {
            return out;
        }
        const int exponent =
            static_cast<int>(std::floor(std::log10(std::fabs(v))));
        os.str("");
        os.setf(std::ios::fixed, std::ios::floatfield);
        os.precision(exponent < 2 ? 2 - exponent : 0);
        os << v;
        out = os.str();
        if (out.find('.') != std::string::npos) {
            out.erase(out.find_last_not_of('0') + 1);
        }
        return out;
    }

    double seconds_;
};

inline constexpr SimTime operator*(double k, SimTime t) { return t * k; }

inline std::ostream&
operator<<(std::ostream& os, SimTime t)
{
    return os << t.ToString();
}

/** Returns the larger of two durations. */
inline constexpr SimTime
Max(SimTime a, SimTime b)
{
    return a < b ? b : a;
}

/** Returns the smaller of two durations. */
inline constexpr SimTime
Min(SimTime a, SimTime b)
{
    return a < b ? a : b;
}

/** Byte-count helpers for capacity/transfer models. */
inline constexpr std::uint64_t KiB(std::uint64_t n) { return n << 10; }
inline constexpr std::uint64_t MiB(std::uint64_t n) { return n << 20; }
inline constexpr std::uint64_t GiB(std::uint64_t n) { return n << 30; }

/**
 * Time to move @p bytes over a channel with @p bytes_per_second sustained
 * bandwidth. The caller adds any fixed per-transfer latency floor.
 */
inline SimTime
TransferTime(std::uint64_t bytes, double bytes_per_second)
{
    DBS_ASSERT(bytes_per_second > 0.0);
    return SimTime::Seconds(static_cast<double>(bytes) / bytes_per_second);
}

}  // namespace dbscore

#endif  // DBSCORE_COMMON_SIM_TIME_H
