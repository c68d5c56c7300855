#include "sig/sliced_kernels.h"

// The AVX kernels are compiled with per-function `target` attributes so
// a generic -march build still carries them; only the cpuid dispatch
// decides whether they run. That needs GCC/Clang on x86-64.
#if defined(__x86_64__) && defined(__GNUC__)
#define ROCOCO_SIMD_X86 1
#include <immintrin.h>
#else
#define ROCOCO_SIMD_X86 0
#endif

namespace rococo::sig {

namespace {

inline uint64_t
hash_bit(const SlicedView& v, uint64_t key, unsigned i)
{
    return uint64_t{i} * v.partition_bits +
           ((v.multipliers[i] * key) >> v.hash_shift);
}

/// Hash functions beyond this need a heap-sized base-pointer array in
/// the wide-column path; every real geometry is k <= 8, so fall back to
/// the scalar walk instead.
constexpr unsigned kMaxK = 16;

void
match_any_scalar(const SlicedView& v, const uint64_t* keys, size_t count,
                 uint64_t* acc)
{
    if (v.mask_words == 1) {
        uint64_t out = 0;
        for (size_t j = 0; j < count; ++j) {
            const uint64_t key = keys[j];
            uint64_t m = v.columns[hash_bit(v, key, 0)];
            for (unsigned i = 1; m != 0 && i < v.k; ++i) {
                m &= v.columns[hash_bit(v, key, i)];
            }
            out |= m;
        }
        acc[0] |= out;
        return;
    }
    for (size_t j = 0; j < count; ++j) {
        const uint64_t key = keys[j];
        for (size_t w = 0; w < v.mask_words; ++w) {
            uint64_t m = v.columns[hash_bit(v, key, 0) * v.mask_words + w];
            for (unsigned i = 1; m != 0 && i < v.k; ++i) {
                m &= v.columns[hash_bit(v, key, i) * v.mask_words + w];
            }
            acc[w] |= m;
        }
    }
}

void
classify_scalar(const SlicedView& read_plane, const SlicedView& write_plane,
                const uint64_t* reads, size_t read_count,
                const uint64_t* writes, size_t write_count, uint64_t* rd,
                uint64_t* wr)
{
    match_any_scalar(write_plane, reads, read_count, rd);
    match_any_scalar(write_plane, writes, write_count, wr);
    match_any_scalar(read_plane, writes, write_count, wr);
}

#if ROCOCO_SIMD_X86

/// 64x64 -> low 64 multiply per lane from the 32-bit partial products
/// AVX2 offers: lo*lo + ((hi*lo + lo*hi) << 32).
__attribute__((target("avx2"))) inline __m256i
mullo64_avx2(__m256i a, __m256i b)
{
    const __m256i lo = _mm256_mul_epu32(a, b);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                         _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void
match_any_avx2(const SlicedView& v, const uint64_t* keys, size_t count,
               uint64_t* acc)
{
    const long long* cols = reinterpret_cast<const long long*>(v.columns);
    if (v.mask_words == 1) {
        // W <= 64: four addresses per pass — vector multiply-shift hash,
        // per-lane column gather, one AND chain for the whole batch.
        // Tail batches mask the dead lanes (maskload yields key 0, which
        // still hashes in range; the masked gather leaves the lane 0, so
        // it contributes nothing to the OR).
        uint64_t out = 0;
        const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(v.hash_shift));
        const __m256i lane_ids = _mm256_set_epi64x(3, 2, 1, 0);
        for (size_t j = 0; j < count; j += 4) {
            const size_t rem = count - j;
            __m256i lanemask, keys4;
            if (rem >= 4) {
                lanemask = _mm256_set1_epi64x(-1);
                keys4 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(keys + j));
            } else {
                lanemask = _mm256_cmpgt_epi64(
                    _mm256_set1_epi64x(static_cast<long long>(rem)), lane_ids);
                keys4 = _mm256_maskload_epi64(
                    reinterpret_cast<const long long*>(keys + j), lanemask);
            }
            __m256i idx = _mm256_srl_epi64(
                mullo64_avx2(keys4, _mm256_set1_epi64x(static_cast<long long>(
                                        v.multipliers[0]))),
                shift);
            __m256i m = _mm256_mask_i64gather_epi64(_mm256_setzero_si256(),
                                                    cols, idx, lanemask, 8);
            for (unsigned i = 1; i < v.k; ++i) {
                if (_mm256_testz_si256(m, m)) break;
                idx = _mm256_srl_epi64(
                    mullo64_avx2(keys4,
                                 _mm256_set1_epi64x(static_cast<long long>(
                                     v.multipliers[i]))),
                    shift);
                idx = _mm256_add_epi64(
                    idx, _mm256_set1_epi64x(static_cast<long long>(
                             uint64_t{i} * v.partition_bits)));
                m = _mm256_and_si256(
                    m, _mm256_mask_i64gather_epi64(_mm256_setzero_si256(),
                                                   cols, idx, lanemask, 8));
            }
            const __m128i o = _mm_or_si128(_mm256_castsi256_si128(m),
                                           _mm256_extracti128_si256(m, 1));
            out |= static_cast<uint64_t>(_mm_cvtsi128_si64(o)) |
                   static_cast<uint64_t>(_mm_extract_epi64(o, 1));
        }
        acc[0] |= out;
        return;
    }
    // W > 64: per address, AND the k column ranges four words per op.
    // Columns narrower than the vector (W <= 256) gain nothing — the
    // scalar word loop already fits in registers.
    if (v.k > kMaxK || v.mask_words < 4) {
        match_any_scalar(v, keys, count, acc);
        return;
    }
    const uint64_t* bases[kMaxK];
    for (size_t j = 0; j < count; ++j) {
        const uint64_t key = keys[j];
        for (unsigned i = 0; i < v.k; ++i) {
            bases[i] = v.columns + hash_bit(v, key, i) * v.mask_words;
        }
        size_t w = 0;
        for (; w + 4 <= v.mask_words; w += 4) {
            __m256i m = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(bases[0] + w));
            for (unsigned i = 1; i < v.k; ++i) {
                if (_mm256_testz_si256(m, m)) break;
                m = _mm256_and_si256(
                    m, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(bases[i] + w)));
            }
            __m256i* a = reinterpret_cast<__m256i*>(acc + w);
            _mm256_storeu_si256(a,
                                _mm256_or_si256(_mm256_loadu_si256(a), m));
        }
        for (; w < v.mask_words; ++w) {
            uint64_t m = bases[0][w];
            for (unsigned i = 1; m != 0 && i < v.k; ++i) m &= bases[i][w];
            acc[w] |= m;
        }
    }
}

__attribute__((target("avx2"))) void
classify_avx2(const SlicedView& read_plane, const SlicedView& write_plane,
              const uint64_t* reads, size_t read_count,
              const uint64_t* writes, size_t write_count, uint64_t* rd,
              uint64_t* wr)
{
    const SlicedView& v = write_plane; // shared geometry; columns differ
    if (v.mask_words != 1 || v.k > kMaxK) {
        match_any_avx2(write_plane, reads, read_count, rd);
        match_any_avx2(write_plane, writes, write_count, wr);
        match_any_avx2(read_plane, writes, write_count, wr);
        return;
    }
    const long long* wcols =
        reinterpret_cast<const long long*>(write_plane.columns);
    const long long* rcols =
        reinterpret_cast<const long long*>(read_plane.columns);
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(v.hash_shift));
    const __m256i lane_ids = _mm256_set_epi64x(3, 2, 1, 0);
    uint64_t rd_out = 0;
    uint64_t wr_out = 0;

    // Reads hit only the write plane: the single-plane chain. Full
    // batches take unmasked loads/gathers; only tails pay for masking.
    // No early exit inside a chain — with k small, the saved gathers
    // rarely beat the branch mispredicts (lanes that die just AND to
    // zero and drop out of the final OR).
    for (size_t j = 0; j < read_count; j += 4) {
        const size_t rem = read_count - j;
        const bool full = rem >= 4;
        __m256i lanemask, keys4;
        if (full) {
            lanemask = _mm256_set1_epi64x(-1);
            keys4 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(reads + j));
        } else {
            lanemask = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(static_cast<long long>(rem)), lane_ids);
            keys4 = _mm256_maskload_epi64(
                reinterpret_cast<const long long*>(reads + j), lanemask);
        }
        __m256i m = _mm256_setzero_si256();
        for (unsigned i = 0; i < v.k; ++i) {
            __m256i idx = _mm256_srl_epi64(
                mullo64_avx2(keys4, _mm256_set1_epi64x(static_cast<long long>(
                                        v.multipliers[i]))),
                shift);
            idx = _mm256_add_epi64(idx,
                                   _mm256_set1_epi64x(static_cast<long long>(
                                       uint64_t{i} * v.partition_bits)));
            const __m256i col =
                full ? _mm256_i64gather_epi64(wcols, idx, 8)
                     : _mm256_mask_i64gather_epi64(_mm256_setzero_si256(),
                                                   wcols, idx, lanemask, 8);
            m = i == 0 ? col : _mm256_and_si256(m, col);
        }
        __m128i o = _mm_or_si128(_mm256_castsi256_si128(m),
                                 _mm256_extracti128_si256(m, 1));
        rd_out |= static_cast<uint64_t>(_mm_cvtsi128_si64(o)) |
                  static_cast<uint64_t>(_mm_extract_epi64(o, 1));
    }

    // Writes hit both planes: hash once, run both chains off the same
    // index vectors (the two gather streams interleave and hide each
    // other's latency).
    for (size_t j = 0; j < write_count; j += 4) {
        const size_t rem = write_count - j;
        const bool full = rem >= 4;
        __m256i lanemask, keys4;
        if (full) {
            lanemask = _mm256_set1_epi64x(-1);
            keys4 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(writes + j));
        } else {
            lanemask = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(static_cast<long long>(rem)), lane_ids);
            keys4 = _mm256_maskload_epi64(
                reinterpret_cast<const long long*>(writes + j), lanemask);
        }
        __m256i m = _mm256_setzero_si256();
        __m256i m2 = _mm256_setzero_si256();
        for (unsigned i = 0; i < v.k; ++i) {
            __m256i idx = _mm256_srl_epi64(
                mullo64_avx2(keys4, _mm256_set1_epi64x(static_cast<long long>(
                                        v.multipliers[i]))),
                shift);
            idx = _mm256_add_epi64(idx,
                                   _mm256_set1_epi64x(static_cast<long long>(
                                       uint64_t{i} * v.partition_bits)));
            __m256i wcol, rcol;
            if (full) {
                wcol = _mm256_i64gather_epi64(wcols, idx, 8);
                rcol = _mm256_i64gather_epi64(rcols, idx, 8);
            } else {
                wcol = _mm256_mask_i64gather_epi64(_mm256_setzero_si256(),
                                                   wcols, idx, lanemask, 8);
                rcol = _mm256_mask_i64gather_epi64(_mm256_setzero_si256(),
                                                   rcols, idx, lanemask, 8);
            }
            m = i == 0 ? wcol : _mm256_and_si256(m, wcol);
            m2 = i == 0 ? rcol : _mm256_and_si256(m2, rcol);
        }
        m = _mm256_or_si256(m, m2);
        __m128i o = _mm_or_si128(_mm256_castsi256_si128(m),
                                 _mm256_extracti128_si256(m, 1));
        wr_out |= static_cast<uint64_t>(_mm_cvtsi128_si64(o)) |
                  static_cast<uint64_t>(_mm_extract_epi64(o, 1));
    }
    rd[0] |= rd_out;
    wr[0] |= wr_out;
}

#endif // ROCOCO_SIMD_X86

constexpr MatchKernel kCompiled[] = {
    MatchKernel::kScalar,
#if ROCOCO_SIMD_X86
    MatchKernel::kAvx2,
#endif
};

bool
cpu_supports(MatchKernel kernel)
{
    switch (kernel) {
    case MatchKernel::kScalar:
        return true;
#if ROCOCO_SIMD_X86
    case MatchKernel::kAvx2:
        return __builtin_cpu_supports("avx2") != 0;
#endif
    default:
        return false;
    }
}

struct RuntimeKernels {
    MatchKernel list[std::size(kCompiled)];
    size_t count = 0;
    RuntimeKernels()
    {
        for (MatchKernel kernel : kCompiled) {
            if (cpu_supports(kernel)) list[count++] = kernel;
        }
    }
};

const RuntimeKernels&
runtime()
{
    static const RuntimeKernels kernels;
    return kernels;
}

} // namespace

const char*
to_string(MatchKernel kernel)
{
    switch (kernel) {
    case MatchKernel::kScalar:
        return "scalar";
    case MatchKernel::kAvx2:
        return "avx2";
    }
    return "unknown";
}

std::span<const MatchKernel>
compiled_kernels()
{
    return {kCompiled, std::size(kCompiled)};
}

std::span<const MatchKernel>
runtime_kernels()
{
    const RuntimeKernels& kernels = runtime();
    return {kernels.list, kernels.count};
}

bool
kernel_available(MatchKernel kernel)
{
    for (MatchKernel compiled : kCompiled) {
        if (compiled == kernel) return cpu_supports(kernel);
    }
    return false;
}

MatchKernel
best_kernel()
{
    const RuntimeKernels& kernels = runtime();
    return kernels.list[kernels.count - 1];
}

MatchAnyFn
kernel_fn(MatchKernel kernel)
{
    if (!kernel_available(kernel)) return &match_any_scalar;
    switch (kernel) {
#if ROCOCO_SIMD_X86
    case MatchKernel::kAvx2:
        return &match_any_avx2;
#endif
    default:
        return &match_any_scalar;
    }
}

ClassifyFn
classify_kernel_fn(MatchKernel kernel)
{
    if (!kernel_available(kernel)) return &classify_scalar;
    switch (kernel) {
#if ROCOCO_SIMD_X86
    case MatchKernel::kAvx2:
        return &classify_avx2;
#endif
    default:
        return &classify_scalar;
    }
}

} // namespace rococo::sig
