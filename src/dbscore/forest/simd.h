/**
 * @file
 * 8-lane f32/i32 SIMD portability shim for the forest kernel's vector
 * traversal loop.
 *
 * One backend is selected at compile time:
 *
 *  - AVX2 on x86-64 GCC/Clang builds. The intrinsics live inside
 *    functions carrying `target("avx2,fma")` attributes, so the shim
 *    compiles (and the rest of the binary stays baseline-ISA) without
 *    any special per-file flags; callers must themselves be compiled
 *    for AVX2 (see DBSCORE_SIMD_FN) and must only run after
 *    HaveSimd() confirms the CPU supports it.
 *  - NEON on AArch64: 8 lanes as a pair of 128-bit quads. NEON has no
 *    gather, so gathers are per-lane loads — the layout and masking
 *    semantics stay identical to AVX2.
 *
 * Anywhere else (and when DBSCORE_SIMD_DISABLED is defined, which the
 * `DBSCORE_SIMD=OFF` CMake leg forces) no backend is compiled,
 * DBSCORE_SIMD_VECTOR stays undefined, and the kernel runs its scalar
 * loop on every row.
 *
 * The API is exactly what one blended descend step of the forest
 * traversal needs: i32/f32 gathers, an ordered-complement float compare
 * matching `!(x <= t)` (NaN compares true, i.e. descends right), and
 * mask arithmetic where a true lane is -1 so `left - mask` implements
 * `left + (x > t)`.
 */
#ifndef DBSCORE_FOREST_SIMD_H
#define DBSCORE_FOREST_SIMD_H

#include <cstddef>
#include <cstdint>

#if !defined(DBSCORE_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DBSCORE_SIMD_AVX2 1
#define DBSCORE_SIMD_VECTOR 1
#include <immintrin.h>
/** Marks a function compiled for AVX2+FMA regardless of global flags. */
#define DBSCORE_SIMD_FN __attribute__((target("avx2,fma")))
#define DBSCORE_SIMD_OP \
    inline __attribute__((always_inline)) DBSCORE_SIMD_FN
#elif !defined(DBSCORE_SIMD_DISABLED) && defined(__ARM_NEON)
#define DBSCORE_SIMD_NEON 1
#define DBSCORE_SIMD_VECTOR 1
#include <arm_neon.h>
#define DBSCORE_SIMD_FN
#define DBSCORE_SIMD_OP inline __attribute__((always_inline))
#endif

namespace dbscore::simd {

/** Lane count of the shim's vector types. */
inline constexpr std::size_t kWidth = 8;

/**
 * True when the compiled vector backend may run on this machine: the
 * binary may be baseline x86-64, so AVX2 needs a runtime CPUID check;
 * NEON is always present on AArch64.
 */
inline bool
HaveSimd()
{
#if defined(DBSCORE_SIMD_AVX2)
    return __builtin_cpu_supports("avx2") != 0;
#elif defined(DBSCORE_SIMD_NEON)
    return true;
#else
    return false;
#endif
}

/** The backend this process runs: "avx2", "neon", or "scalar". */
inline const char*
ActiveBackend()
{
#if defined(DBSCORE_SIMD_AVX2)
    return HaveSimd() ? "avx2" : "scalar";
#elif defined(DBSCORE_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

#if defined(DBSCORE_SIMD_AVX2)

// Plain vector types rather than wrapper structs: GCC keeps arrays of
// these in registers, while struct-wrapped arrays round-trip through
// the stack on every assignment.
using VI = __m256i;
using VF = __m256;

DBSCORE_SIMD_OP VI
Set1(std::int32_t x)
{
    return _mm256_set1_epi32(x);
}

DBSCORE_SIMD_OP VI
Load(const std::int32_t* src)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
}

DBSCORE_SIMD_OP VI
Add(VI a, VI b)
{
    return _mm256_add_epi32(a, b);
}

DBSCORE_SIMD_OP VI
Sub(VI a, VI b)
{
    return _mm256_sub_epi32(a, b);
}

DBSCORE_SIMD_OP VI
And(VI a, VI b)
{
    return _mm256_and_si256(a, b);
}

DBSCORE_SIMD_OP VI
Or(VI a, VI b)
{
    return _mm256_or_si256(a, b);
}

DBSCORE_SIMD_OP VI
Xor(VI a, VI b)
{
    return _mm256_xor_si256(a, b);
}

/** Logical (zero-fill) right shift of each lane. */
DBSCORE_SIMD_OP VI
Srl(VI a, int bits)
{
    return _mm256_srli_epi32(a, bits);
}

DBSCORE_SIMD_OP VI
GatherI32(const std::int32_t* base, VI idx)
{
    return _mm256_i32gather_epi32(base, idx, 4);
}

DBSCORE_SIMD_OP VF
GatherF32(const float* base, VI idx)
{
    return _mm256_i32gather_ps(base, idx, 4);
}

/** -1 where !(x <= t) — strictly greater or unordered (NaN). */
DBSCORE_SIMD_OP VI
CmpNotLe(VF x, VF t)
{
    return _mm256_castps_si256(_mm256_cmp_ps(x, t, _CMP_NLE_UQ));
}

/** True when any bit of any lane is set. */
DBSCORE_SIMD_OP bool
AnyNonZero(VI a)
{
    return _mm256_testz_si256(a, a) == 0;
}

DBSCORE_SIMD_OP void
Store(std::int32_t* dst, VI a)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), a);
}

#elif defined(DBSCORE_SIMD_NEON)

struct VI {
    int32x4_t lo;
    int32x4_t hi;
};
struct VF {
    float32x4_t lo;
    float32x4_t hi;
};

DBSCORE_SIMD_OP VI
Set1(std::int32_t x)
{
    return {vdupq_n_s32(x), vdupq_n_s32(x)};
}

DBSCORE_SIMD_OP VI
Load(const std::int32_t* src)
{
    return {vld1q_s32(src), vld1q_s32(src + 4)};
}

DBSCORE_SIMD_OP VI
Add(VI a, VI b)
{
    return {vaddq_s32(a.lo, b.lo), vaddq_s32(a.hi, b.hi)};
}

DBSCORE_SIMD_OP VI
Sub(VI a, VI b)
{
    return {vsubq_s32(a.lo, b.lo), vsubq_s32(a.hi, b.hi)};
}

DBSCORE_SIMD_OP VI
And(VI a, VI b)
{
    return {vandq_s32(a.lo, b.lo), vandq_s32(a.hi, b.hi)};
}

DBSCORE_SIMD_OP VI
Or(VI a, VI b)
{
    return {vorrq_s32(a.lo, b.lo), vorrq_s32(a.hi, b.hi)};
}

DBSCORE_SIMD_OP VI
Xor(VI a, VI b)
{
    return {veorq_s32(a.lo, b.lo), veorq_s32(a.hi, b.hi)};
}

DBSCORE_SIMD_OP VI
Srl(VI a, int bits)
{
    const int32x4_t shift = vdupq_n_s32(-bits);
    return {vreinterpretq_s32_u32(
                vshlq_u32(vreinterpretq_u32_s32(a.lo), shift)),
            vreinterpretq_s32_u32(
                vshlq_u32(vreinterpretq_u32_s32(a.hi), shift))};
}

DBSCORE_SIMD_OP VI
GatherI32(const std::int32_t* base, VI idx)
{
    std::int32_t i[8];
    vst1q_s32(i, idx.lo);
    vst1q_s32(i + 4, idx.hi);
    const std::int32_t v[8] = {base[i[0]], base[i[1]], base[i[2]],
                               base[i[3]], base[i[4]], base[i[5]],
                               base[i[6]], base[i[7]]};
    return {vld1q_s32(v), vld1q_s32(v + 4)};
}

DBSCORE_SIMD_OP VF
GatherF32(const float* base, VI idx)
{
    std::int32_t i[8];
    vst1q_s32(i, idx.lo);
    vst1q_s32(i + 4, idx.hi);
    const float v[8] = {base[i[0]], base[i[1]], base[i[2]], base[i[3]],
                        base[i[4]], base[i[5]], base[i[6]], base[i[7]]};
    return {vld1q_f32(v), vld1q_f32(v + 4)};
}

DBSCORE_SIMD_OP VI
CmpNotLe(VF x, VF t)
{
    // vcle is false for NaN, so its complement matches !(x <= t).
    return {vreinterpretq_s32_u32(vmvnq_u32(vcleq_f32(x.lo, t.lo))),
            vreinterpretq_s32_u32(vmvnq_u32(vcleq_f32(x.hi, t.hi)))};
}

DBSCORE_SIMD_OP bool
AnyNonZero(VI a)
{
    return vmaxvq_u32(vreinterpretq_u32_s32(vorrq_s32(a.lo, a.hi))) != 0;
}

DBSCORE_SIMD_OP void
Store(std::int32_t* dst, VI a)
{
    vst1q_s32(dst, a.lo);
    vst1q_s32(dst + 4, a.hi);
}

#endif

}  // namespace dbscore::simd

#endif  // DBSCORE_FOREST_SIMD_H
