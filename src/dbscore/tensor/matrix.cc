#include "dbscore/tensor/matrix.h"

#include <utility>

#include "dbscore/common/error.h"

namespace dbscore {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data))
{
    if (data_.size() != rows * cols) {
        throw InvalidArgument("matrix: storage size mismatch");
    }
}

Matrix
Matrix::FromView(RowView view)
{
    if (!view.contiguous()) {
        throw InvalidArgument("matrix: FromView requires a contiguous view");
    }
    Matrix m;
    m.rows_ = view.rows();
    m.cols_ = view.cols();
    m.view_ = std::move(view);
    return m;
}

float&
Matrix::At(std::size_t r, std::size_t c)
{
    DBS_ASSERT(r < rows_ && c < cols_);
    return data()[r * cols_ + c];
}

float
Matrix::At(std::size_t r, std::size_t c) const
{
    DBS_ASSERT(r < rows_ && c < cols_);
    return raw()[r * cols_ + c];
}

const float*
Matrix::RowPtr(std::size_t r) const
{
    DBS_ASSERT(r < rows_);
    return raw() + r * cols_;
}

float*
Matrix::RowPtr(std::size_t r)
{
    DBS_ASSERT(r < rows_);
    return data().data() + r * cols_;
}

const float*
Matrix::raw() const
{
    return view_.empty() ? data_.data() : view_.data();
}

const std::vector<float>&
Matrix::data() const
{
    if (!view_.empty()) {
        throw InvalidArgument(
            "matrix: view-backed matrix has no owned storage; use raw()");
    }
    return data_;
}

std::vector<float>&
Matrix::data()
{
    if (!view_.empty()) {
        throw InvalidArgument("matrix: view-backed matrices are read-only");
    }
    return data_;
}

bool
Matrix::operator==(const Matrix& other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_) {
        return false;
    }
    const float* a = raw();
    const float* b = other.raw();
    for (std::size_t i = 0, n = size(); i < n; ++i) {
        if (a[i] != b[i]) {
            return false;
        }
    }
    return true;
}

}  // namespace dbscore
