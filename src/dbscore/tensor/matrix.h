/**
 * @file
 * Dense float32 row-major matrix.
 *
 * This is the tensor substrate that the Hummingbird-style compiler lowers
 * tree ensembles into. It runs on the host for functional results; the
 * GPU device model separately converts the op-level cost ledger into
 * simulated kernel times.
 *
 * A matrix either owns its storage (mutable, the default) or adopts a
 * contiguous RowView (FromView) and reads the viewed data in place —
 * the zero-copy entry point for feature matrices arriving from the data
 * plane. View-backed matrices are read-only: the mutating accessors
 * throw.
 */
#ifndef DBSCORE_TENSOR_MATRIX_H
#define DBSCORE_TENSOR_MATRIX_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dbscore/data/row_block.h"

namespace dbscore {

/** Dense row-major float matrix. */
class Matrix {
 public:
    Matrix() = default;

    /** Allocates rows x cols zeros. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Wraps existing storage; @p data must have rows*cols entries. */
    Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

    /**
     * Adopts a contiguous view without copying. The result is
     * read-only; the view's keepalive (if any) pins the storage.
     * @throws InvalidArgument for strided (non-contiguous) views
     */
    static Matrix FromView(RowView view);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return rows_ * cols_; }
    std::uint64_t ByteSize() const
    {
        return static_cast<std::uint64_t>(rows_) * cols_ * sizeof(float);
    }

    /** True when backed by owned (mutable) storage. */
    bool owns_data() const { return view_.empty(); }

    float& At(std::size_t r, std::size_t c);
    float At(std::size_t r, std::size_t c) const;

    const float* RowPtr(std::size_t r) const;
    float* RowPtr(std::size_t r);

    /** Flat read pointer to rows*cols contiguous values. */
    const float* raw() const;

    /**
     * Owned storage. @throws InvalidArgument on a view-backed matrix
     * (use raw()/RowPtr()).
     */
    const std::vector<float>& data() const;
    std::vector<float>& data();

    bool operator==(const Matrix& other) const;

 private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
    /** Adopted storage; when non-empty the matrix is read-only. */
    RowView view_;
};

}  // namespace dbscore

#endif  // DBSCORE_TENSOR_MATRIX_H
