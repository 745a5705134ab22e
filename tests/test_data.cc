/** @file Tests for the synthetic datasets and the loader. */
#include <set>

#include <gtest/gtest.h>

#include "src/data/dataloader.h"
#include "src/data/digits.h"
#include "src/data/objects.h"
#include "src/data/street_digits.h"
#include "src/data/textures.h"
#include "src/tensor/ops.h"

namespace shredder {
namespace {

using data::Batch;

// ---------------------------------------------------------------------
// Generic dataset properties, parameterized over all four generators.
// ---------------------------------------------------------------------

enum class Kind { kDigits, kObjects, kStreet, kTextures };

std::unique_ptr<data::Dataset>
make(Kind kind, std::int64_t count, std::uint64_t seed)
{
    switch (kind) {
      case Kind::kDigits: {
        data::DigitsConfig c;
        c.count = count;
        c.seed = seed;
        return std::make_unique<data::DigitsDataset>(c);
      }
      case Kind::kObjects: {
        data::ObjectsConfig c;
        c.count = count;
        c.seed = seed;
        return std::make_unique<data::ObjectsDataset>(c);
      }
      case Kind::kStreet: {
        data::StreetDigitsConfig c;
        c.count = count;
        c.seed = seed;
        return std::make_unique<data::StreetDigitsDataset>(c);
      }
      case Kind::kTextures: {
        data::TexturesConfig c;
        c.count = count;
        c.seed = seed;
        return std::make_unique<data::TexturesDataset>(c);
      }
    }
    return nullptr;
}

class AllDatasets : public ::testing::TestWithParam<Kind>
{};

TEST_P(AllDatasets, ShapesAndRanges)
{
    auto ds = make(GetParam(), 40, 5);
    EXPECT_EQ(ds->size(), 40);
    EXPECT_GE(ds->num_classes(), 2);
    const Shape img = ds->image_shape();
    for (std::int64_t i = 0; i < 40; i += 7) {
        const data::Sample s = ds->get(i);
        EXPECT_EQ(s.image.shape(), img);
        EXPECT_GE(s.label, 0);
        EXPECT_LT(s.label, ds->num_classes());
        EXPECT_GE(s.image.min(), 0.0f);
        EXPECT_LE(s.image.max(), 1.0f);
        EXPECT_FALSE(s.image.has_nonfinite());
    }
}

TEST_P(AllDatasets, DeterministicPerIndex)
{
    auto a = make(GetParam(), 20, 9);
    auto b = make(GetParam(), 20, 9);
    for (std::int64_t i = 0; i < 20; i += 5) {
        const data::Sample sa = a->get(i);
        const data::Sample sb = b->get(i);
        EXPECT_EQ(sa.label, sb.label);
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(sa.image, sb.image), 0.0);
    }
}

TEST_P(AllDatasets, DifferentSeedsProduceDifferentImages)
{
    auto a = make(GetParam(), 10, 1);
    auto b = make(GetParam(), 10, 2);
    const data::Sample sa = a->get(0);
    const data::Sample sb = b->get(0);
    EXPECT_GT(ops::max_abs_diff(sa.image, sb.image), 1e-3);
}

TEST_P(AllDatasets, SameClassSamplesVary)
{
    auto ds = make(GetParam(), 100, 3);
    const std::int64_t classes = ds->num_classes();
    // Indices i and i+classes share a label but must differ visually.
    const data::Sample s0 = ds->get(0);
    const data::Sample s1 = ds->get(classes);
    EXPECT_EQ(s0.label, s1.label);
    EXPECT_GT(ops::max_abs_diff(s0.image, s1.image), 1e-3);
}

TEST_P(AllDatasets, LabelsCycleThroughAllClasses)
{
    auto ds = make(GetParam(), 200, 4);
    std::set<std::int64_t> seen;
    for (std::int64_t i = 0; i < ds->num_classes() * 2; ++i) {
        seen.insert(ds->get(i).label);
    }
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), ds->num_classes());
}

TEST_P(AllDatasets, ImagesCarrySignal)
{
    // Non-trivial image content: variance well above zero.
    auto ds = make(GetParam(), 10, 6);
    for (std::int64_t i = 0; i < 5; ++i) {
        EXPECT_GT(ds->get(i).image.variance(), 1e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(Generators, AllDatasets,
                         ::testing::Values(Kind::kDigits, Kind::kObjects,
                                           Kind::kStreet,
                                           Kind::kTextures));

// ---------------------------------------------------------------------
// Specific dataset facts
// ---------------------------------------------------------------------

TEST(Digits, IsGrayscale28)
{
    data::DigitsDataset ds;
    EXPECT_EQ(ds.image_shape(), Shape({1, 28, 28}));
    EXPECT_EQ(ds.num_classes(), 10);
    EXPECT_EQ(ds.name(), "digits");
}

TEST(Objects, IsColor32)
{
    data::ObjectsDataset ds;
    EXPECT_EQ(ds.image_shape(), Shape({3, 32, 32}));
    EXPECT_EQ(ds.num_classes(), 10);
}

TEST(StreetDigits, IsColor32)
{
    data::StreetDigitsDataset ds;
    EXPECT_EQ(ds.image_shape(), Shape({3, 32, 32}));
}

TEST(Textures, ConfigurableSizeAndClasses)
{
    data::TexturesConfig c;
    c.image_size = 48;
    c.classes = 12;
    c.count = 30;
    data::TexturesDataset ds(c);
    EXPECT_EQ(ds.image_shape(), Shape({3, 48, 48}));
    EXPECT_EQ(ds.num_classes(), 12);
    EXPECT_EQ(ds.get(13).label, 1);  // 13 % 12
}

// ---------------------------------------------------------------------
// Materialize + DataLoader
// ---------------------------------------------------------------------

TEST(Materialize, PacksBatch)
{
    data::DigitsConfig c;
    c.count = 20;
    data::DigitsDataset ds(c);
    const Batch b = data::materialize(ds, 5, 4);
    EXPECT_EQ(b.images.shape(), Shape({4, 1, 28, 28}));
    EXPECT_EQ(b.size(), 4);
    // Slice matches the direct sample.
    const data::Sample s = ds.get(6);
    EXPECT_DOUBLE_EQ(
        ops::max_abs_diff(b.images.slice0(1), s.image), 0.0);
    EXPECT_EQ(b.labels[1], s.label);
    EXPECT_EQ(b.indices, (std::vector<std::int64_t>{5, 6, 7, 8}));
}

TEST(DataLoader, CoversEpochExactlyOnce)
{
    data::DigitsConfig c;
    c.count = 25;
    data::DigitsDataset ds(c);
    Rng rng(1);
    data::DataLoader loader(ds, 8, /*shuffle=*/true, rng);
    EXPECT_EQ(loader.batches_per_epoch(), 4);  // 8+8+8+1

    std::int64_t total = 0;
    std::multiset<std::int64_t> indices;
    while (auto b = loader.next()) {
        total += b->size();
        ASSERT_EQ(b->indices.size(), b->labels.size());
        for (std::size_t i = 0; i < b->indices.size(); ++i) {
            // Each row is the sample its index names.
            EXPECT_EQ(b->labels[i], ds.get(b->indices[i]).label);
            indices.insert(b->indices[i]);
        }
    }
    EXPECT_EQ(total, 25);
    // Every index exactly once.
    std::multiset<std::int64_t> all;
    for (std::int64_t i = 0; i < 25; ++i) {
        all.insert(i);
    }
    EXPECT_EQ(indices, all);
    EXPECT_FALSE(loader.next().has_value());
}

TEST(DataLoader, FinalPartialBatch)
{
    data::DigitsConfig c;
    c.count = 10;
    data::DigitsDataset ds(c);
    Rng rng(2);
    data::DataLoader loader(ds, 4, false, rng);
    EXPECT_EQ(loader.next()->size(), 4);
    EXPECT_EQ(loader.next()->size(), 4);
    EXPECT_EQ(loader.next()->size(), 2);
    EXPECT_FALSE(loader.next().has_value());
}

TEST(DataLoader, ResetStartsNewEpoch)
{
    data::DigitsConfig c;
    c.count = 6;
    data::DigitsDataset ds(c);
    Rng rng(3);
    data::DataLoader loader(ds, 6, false, rng);
    EXPECT_TRUE(loader.next().has_value());
    EXPECT_FALSE(loader.next().has_value());
    loader.reset();
    EXPECT_TRUE(loader.next().has_value());
}

TEST(DataLoader, ShuffleChangesOrderButNotContent)
{
    data::DigitsConfig c;
    c.count = 64;
    data::DigitsDataset ds(c);
    Rng rng(4);
    data::DataLoader plain(ds, 64, false, rng);
    data::DataLoader shuffled(ds, 64, true, rng);
    const Batch a = *plain.next();
    const Batch b = *shuffled.next();
    // Same multiset of labels…
    std::multiset<std::int64_t> la(a.labels.begin(), a.labels.end());
    std::multiset<std::int64_t> lb(b.labels.begin(), b.labels.end());
    EXPECT_EQ(la, lb);
    // …but different order (64 samples; collision chance ≈ 0).
    EXPECT_NE(a.labels, b.labels);
}

}  // namespace
}  // namespace shredder
