#include "dbscore/forest/onnx_like.h"

#include <algorithm>
#include <map>

#include "dbscore/common/error.h"
#include "dbscore/forest/serialize.h"

namespace dbscore {

namespace {
constexpr std::uint32_t kMagic = 0x454E4F54;  // "TONE"
constexpr std::uint32_t kVersion = 1;
}  // namespace

std::size_t
TreeEnsemble::NumTrees() const
{
    if (tree_ids.empty()) {
        return 0;
    }
    return static_cast<std::size_t>(
        *std::max_element(tree_ids.begin(), tree_ids.end())) + 1;
}

std::uint64_t
TreeEnsemble::ByteSize() const
{
    // Per node: tree id, node id, mode, feature, threshold, two child ids,
    // leaf value. Matches the serialized layout (mode packed to 1 byte).
    return static_cast<std::uint64_t>(NumNodes()) *
               (4 + 4 + 1 + 4 + 4 + 4 + 4 + 4) + 32;
}

TreeEnsemble
TreeEnsemble::FromForest(const RandomForest& forest)
{
    TreeEnsemble e;
    e.task = forest.task();
    e.num_features = static_cast<std::uint32_t>(forest.num_features());
    e.num_classes = forest.num_classes();
    const std::size_t total = forest.TotalNodes();
    e.tree_ids.reserve(total);
    e.node_ids.reserve(total);
    e.modes.reserve(total);
    e.feature_ids.reserve(total);
    e.thresholds.reserve(total);
    e.true_children.reserve(total);
    e.false_children.reserve(total);
    e.leaf_values.reserve(total);

    for (std::size_t t = 0; t < forest.NumTrees(); ++t) {
        const DecisionTree& tree = forest.Tree(t);
        for (std::size_t i = 0; i < tree.NumNodes(); ++i) {
            auto node = static_cast<std::int32_t>(i);
            e.tree_ids.push_back(static_cast<std::int32_t>(t));
            e.node_ids.push_back(node);
            if (tree.IsLeaf(node)) {
                e.modes.push_back(NodeMode::kLeaf);
                e.feature_ids.push_back(kLeafFeature);
                e.thresholds.push_back(0.0f);
                e.true_children.push_back(-1);
                e.false_children.push_back(-1);
                e.leaf_values.push_back(tree.LeafValue(node));
            } else {
                e.modes.push_back(NodeMode::kBranchLeq);
                e.feature_ids.push_back(tree.Feature(node));
                e.thresholds.push_back(tree.Threshold(node));
                e.true_children.push_back(tree.Left(node));
                e.false_children.push_back(tree.Right(node));
                e.leaf_values.push_back(0.0f);
            }
        }
    }
    return e;
}

RandomForest
TreeEnsemble::ToForest() const
{
    const std::size_t n = NumNodes();
    if (n == 0) {
        throw ParseError("ensemble: empty");
    }
    if (node_ids.size() != n || modes.size() != n ||
        feature_ids.size() != n || thresholds.size() != n ||
        true_children.size() != n || false_children.size() != n ||
        leaf_values.size() != n) {
        throw ParseError("ensemble: ragged attribute arrays");
    }

    RandomForest forest(task, num_features, num_classes);
    const std::size_t num_trees = NumTrees();
    if (num_trees > n) {
        // Every tree needs at least one node; a larger id space means a
        // corrupt tree_ids array.
        throw ParseError("ensemble: tree ids exceed node count");
    }

    // Entries may arrive in any order; bucket per tree by node id first.
    std::vector<std::vector<std::size_t>> per_tree(num_trees);
    for (std::size_t i = 0; i < n; ++i) {
        std::int32_t t = tree_ids[i];
        if (t < 0 || static_cast<std::size_t>(t) >= num_trees) {
            throw ParseError("ensemble: bad tree id");
        }
        per_tree[static_cast<std::size_t>(t)].push_back(i);
    }

    for (std::size_t t = 0; t < num_trees; ++t) {
        auto& entries = per_tree[t];
        if (entries.empty()) {
            throw ParseError("ensemble: tree with no nodes");
        }
        std::sort(entries.begin(), entries.end(),
                  [this](std::size_t a, std::size_t b) {
                      return node_ids[a] < node_ids[b];
                  });
        DecisionTree tree;
        for (std::size_t k = 0; k < entries.size(); ++k) {
            std::size_t i = entries[k];
            if (node_ids[i] != static_cast<std::int32_t>(k)) {
                throw ParseError("ensemble: node ids not dense");
            }
            if (modes[i] == NodeMode::kLeaf) {
                if (task == Task::kClassification &&
                    !LeafIsClassId(leaf_values[i], num_classes)) {
                    throw ParseError("ensemble: leaf is not a class id");
                }
                tree.AddLeafNode(leaf_values[i]);
            } else {
                if (feature_ids[i] < 0) {
                    throw ParseError("ensemble: branch without feature");
                }
                std::int32_t node =
                    tree.AddDecisionNode(feature_ids[i], thresholds[i]);
                tree.SetChildren(node, true_children[i], false_children[i]);
            }
        }
        tree.Validate(num_features);
        forest.AddTree(std::move(tree));
    }
    return forest;
}

std::vector<std::uint8_t>
TreeEnsemble::Serialize() const
{
    ByteWriter w;
    w.PutU32(kMagic);
    w.PutU32(kVersion);
    w.PutU8(task == Task::kClassification ? 0 : 1);
    w.PutU32(num_features);
    w.PutI32(num_classes);
    w.PutU64(NumNodes());
    for (std::size_t i = 0; i < NumNodes(); ++i) {
        w.PutI32(tree_ids[i]);
        w.PutI32(node_ids[i]);
        w.PutU8(static_cast<std::uint8_t>(modes[i]));
        w.PutI32(feature_ids[i]);
        w.PutF32(thresholds[i]);
        w.PutI32(true_children[i]);
        w.PutI32(false_children[i]);
        w.PutF32(leaf_values[i]);
    }
    return w.Take();
}

TreeEnsemble
TreeEnsemble::Deserialize(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.GetU32() != kMagic) {
        throw ParseError("ensemble blob: bad magic");
    }
    if (r.GetU32() != kVersion) {
        throw ParseError("ensemble blob: unsupported version");
    }
    TreeEnsemble e;
    std::uint8_t task_byte = r.GetU8();
    if (task_byte > 1) {
        throw ParseError("ensemble blob: bad task byte");
    }
    e.task = task_byte == 0 ? Task::kClassification : Task::kRegression;
    e.num_features = r.GetU32();
    e.num_classes = r.GetI32();
    std::uint64_t n = r.GetU64();
    // Each node occupies 25 serialized bytes; a count beyond what the
    // remaining payload can hold is corrupt (and would otherwise trigger
    // a giant up-front allocation).
    if (n == 0 || n > r.remaining() / 25) {
        throw ParseError("ensemble blob: implausible node count");
    }
    e.tree_ids.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        e.tree_ids.push_back(r.GetI32());
        e.node_ids.push_back(r.GetI32());
        std::uint8_t mode = r.GetU8();
        if (mode > 1) {
            throw ParseError("ensemble blob: bad node mode");
        }
        e.modes.push_back(static_cast<NodeMode>(mode));
        e.feature_ids.push_back(r.GetI32());
        e.thresholds.push_back(r.GetF32());
        e.true_children.push_back(r.GetI32());
        e.false_children.push_back(r.GetI32());
        e.leaf_values.push_back(r.GetF32());
    }
    if (!r.AtEnd()) {
        throw ParseError("ensemble blob: trailing bytes");
    }
    return e;
}

}  // namespace dbscore
