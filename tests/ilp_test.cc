/**
 * @file
 * Tests for the Section 5 ILP machinery: the 0/1 branch-and-bound
 * solver, the layout formulation (Eqs. 1-4), the two objectives, and
 * randomized property sweeps comparing the exact solver against both
 * brute force and the greedy baseline.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ilp/layout.hh"
#include "ilp/model.hh"
#include "ilp/solver.hh"

namespace hydra::ilp {
namespace {

// ---------------------------------------------------------------- Solver

TEST(SolverTest, UnconstrainedMaximizeSetsPositiveVars)
{
    Model model;
    const VarId x = model.addBinaryVar("x");
    const VarId y = model.addBinaryVar("y");
    LinearExpr obj;
    obj.add(3.0, x).add(-2.0, y);
    model.setObjective(obj, Sense::Maximize);

    auto solution = Solver().solve(model);
    ASSERT_TRUE(solution.ok());
    EXPECT_EQ(solution.value().values[x], 1);
    EXPECT_EQ(solution.value().values[y], 0);
    EXPECT_DOUBLE_EQ(solution.value().objective, 3.0);
    EXPECT_TRUE(solution.value().proven);
}

TEST(SolverTest, MinimizeNegatesCorrectly)
{
    Model model;
    const VarId x = model.addBinaryVar("x");
    LinearExpr constraint;
    constraint.add(1.0, x);
    model.addConstraint(constraint, Relation::Ge, 1.0); // force x = 1
    LinearExpr obj;
    obj.add(5.0, x);
    model.setObjective(obj, Sense::Minimize);

    auto solution = Solver().solve(model);
    ASSERT_TRUE(solution.ok());
    EXPECT_EQ(solution.value().values[x], 1);
    EXPECT_DOUBLE_EQ(solution.value().objective, 5.0);
}

TEST(SolverTest, EqualityConstraintBinds)
{
    Model model;
    std::vector<VarId> vars;
    LinearExpr sum;
    for (int i = 0; i < 5; ++i) {
        vars.push_back(
            model.addBinaryVar(std::string("v").append(std::to_string(i))));
        sum.add(1.0, vars.back());
    }
    model.addConstraint(sum, Relation::Eq, 2.0);
    LinearExpr obj;
    for (const VarId v : vars)
        obj.add(1.0, v);
    model.setObjective(obj, Sense::Maximize);

    auto solution = Solver().solve(model);
    ASSERT_TRUE(solution.ok());
    EXPECT_DOUBLE_EQ(solution.value().objective, 2.0);
    EXPECT_TRUE(satisfies(model, solution.value().values));
}

TEST(SolverTest, InfeasibleDetected)
{
    Model model;
    const VarId x = model.addBinaryVar("x");
    LinearExpr a;
    a.add(1.0, x);
    model.addConstraint(a, Relation::Ge, 1.0);
    LinearExpr b;
    b.add(1.0, x);
    model.addConstraint(b, Relation::Le, 0.0);

    auto solution = Solver().solve(model);
    ASSERT_FALSE(solution.ok());
    EXPECT_EQ(solution.error().code, ErrorCode::Infeasible);
}

TEST(SolverTest, KnapsackOptimal)
{
    // Classic: weights {2,3,4,5}, values {3,4,5,6}, capacity 5.
    // Optimum: items 0+1 (weight 5, value 7).
    Model model;
    const double weights[] = {2, 3, 4, 5};
    const double values[] = {3, 4, 5, 6};
    LinearExpr weight, value;
    std::vector<VarId> vars;
    for (int i = 0; i < 4; ++i) {
        vars.push_back(model.addBinaryVar("item" + std::to_string(i)));
        weight.add(weights[i], vars.back());
        value.add(values[i], vars.back());
    }
    model.addConstraint(weight, Relation::Le, 5.0);
    model.setObjective(value, Sense::Maximize);

    auto solution = Solver().solve(model);
    ASSERT_TRUE(solution.ok());
    EXPECT_DOUBLE_EQ(solution.value().objective, 7.0);
    EXPECT_EQ(solution.value().values[0], 1);
    EXPECT_EQ(solution.value().values[1], 1);
}

TEST(SolverTest, NodeLimitReported)
{
    // A model that needs search but gets a 1-node budget.
    Model model;
    LinearExpr sum;
    for (int i = 0; i < 20; ++i) {
        const VarId v = model.addBinaryVar("v");
        sum.add(1.0, v);
    }
    model.addConstraint(sum, Relation::Eq, 10.0);
    model.setObjective(sum, Sense::Maximize);

    SolverLimits limits;
    limits.maxNodes = 1;
    auto solution = Solver(limits).solve(model);
    ASSERT_FALSE(solution.ok());
    EXPECT_EQ(solution.error().code, ErrorCode::SolverLimitReached);
}

/** Brute-force reference for cross-checking on small instances. */
double
bruteForceBest(const Model &model, bool &feasible)
{
    const std::size_t n = model.numVars();
    double best = -1e300;
    feasible = false;
    for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
        std::vector<std::int8_t> values(n, 0);
        for (std::size_t i = 0; i < n; ++i)
            values[i] = (mask >> i) & 1;
        if (!satisfies(model, values))
            continue;
        const double obj = model.objective().evaluate(values);
        if (!feasible || obj > best)
            best = obj;
        feasible = true;
    }
    return best;
}

/** Property sweep: solver matches brute force on random models. */
class SolverPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SolverPropertyTest, MatchesBruteForce)
{
    Rng rng(GetParam());
    Model model;
    const std::size_t n = 3 + rng.uniformInt(0, 7); // 3..10 vars
    std::vector<VarId> vars;
    for (std::size_t i = 0; i < n; ++i)
        vars.push_back(
            model.addBinaryVar(std::string("v").append(std::to_string(i))));

    const std::size_t numConstraints = rng.uniformInt(1, 4);
    for (std::size_t c = 0; c < numConstraints; ++c) {
        LinearExpr expr;
        for (const VarId v : vars)
            if (rng.chance(0.6))
                expr.add(rng.uniformInt(-3, 3), v);
        const Relation rel = static_cast<Relation>(rng.uniformInt(0, 2));
        model.addConstraint(expr, rel, rng.uniformInt(-2, 4));
    }

    LinearExpr obj;
    for (const VarId v : vars)
        obj.add(rng.uniformInt(-5, 5), v);
    model.setObjective(obj, Sense::Maximize);

    bool feasible = false;
    const double reference = bruteForceBest(model, feasible);
    auto solution = Solver().solve(model);

    if (!feasible) {
        ASSERT_FALSE(solution.ok());
        EXPECT_EQ(solution.error().code, ErrorCode::Infeasible);
    } else {
        ASSERT_TRUE(solution.ok());
        EXPECT_TRUE(satisfies(model, solution.value().values));
        EXPECT_NEAR(solution.value().objective, reference, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, SolverPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------- Layout

LayoutSpec
basicSpec(std::size_t offcodes, std::size_t devices)
{
    LayoutSpec spec;
    spec.numOffcodes = offcodes;
    spec.numDevices = devices;
    spec.compatible.assign(offcodes,
                           std::vector<bool>(devices, true));
    return spec;
}

TEST(LayoutTest, MaximizeOffloadingOffloadsEverything)
{
    LayoutSpec spec = basicSpec(4, 3);
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    EXPECT_EQ(assignment.value().offloadedCount(), 4u);
    EXPECT_DOUBLE_EQ(assignment.value().objective, 4.0);
}

TEST(LayoutTest, HostOnlyOffcodeStaysHome)
{
    LayoutSpec spec = basicSpec(2, 3);
    spec.compatible[0] = {true, false, false};
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    EXPECT_EQ(assignment.value().device[0], 0u);
    EXPECT_NE(assignment.value().device[1], 0u);
}

TEST(LayoutTest, PullForcesSameDevice)
{
    LayoutSpec spec = basicSpec(2, 4);
    spec.edges.push_back({0, 1, LayoutConstraint::Pull});
    // Offcode 0 only runs on device 2; Pull must drag 1 there too.
    spec.compatible[0] = {false, false, true, false};
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    EXPECT_EQ(assignment.value().device[0], 2u);
    EXPECT_EQ(assignment.value().device[1], 2u);
}

TEST(LayoutTest, PullInfeasibleWhenNoCommonDevice)
{
    LayoutSpec spec = basicSpec(2, 3);
    spec.edges.push_back({0, 1, LayoutConstraint::Pull});
    spec.compatible[0] = {false, true, false};
    spec.compatible[1] = {false, false, true};
    auto assignment = solveLayout(spec);
    ASSERT_FALSE(assignment.ok());
    EXPECT_EQ(assignment.error().code, ErrorCode::Infeasible);
}

TEST(LayoutTest, GangBindsOffloadDecisionNotPlacement)
{
    LayoutSpec spec = basicSpec(2, 3);
    spec.edges.push_back({0, 1, LayoutConstraint::Gang});
    // Offcode 0 can only run on device 1, offcode 1 only on device 2;
    // both can fall back to host. Gang allows different devices.
    spec.compatible[0] = {true, true, false};
    spec.compatible[1] = {true, false, true};
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    EXPECT_EQ(assignment.value().device[0], 1u);
    EXPECT_EQ(assignment.value().device[1], 2u);
}

TEST(LayoutTest, GangDragsPartnerToHost)
{
    LayoutSpec spec = basicSpec(2, 2);
    spec.edges.push_back({0, 1, LayoutConstraint::Gang});
    spec.compatible[0] = {true, false}; // host only
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    // 0 must stay home, so Gang keeps 1 home too.
    EXPECT_EQ(assignment.value().device[1], 0u);
}

TEST(LayoutTest, AsymmetricGangOneDirection)
{
    // AsymGang(a->b): offloading a requires offloading b, not vice
    // versa. Make b host-only: then a must stay home as well.
    LayoutSpec spec = basicSpec(2, 2);
    spec.edges.push_back({0, 1, LayoutConstraint::AsymGang});
    spec.compatible[1] = {true, false};
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    EXPECT_EQ(assignment.value().device[0], 0u);

    // Reverse: a host-only leaves b free to offload.
    LayoutSpec spec2 = basicSpec(2, 2);
    spec2.edges.push_back({0, 1, LayoutConstraint::AsymGang});
    spec2.compatible[0] = {true, false};
    auto assignment2 = solveLayout(spec2);
    ASSERT_TRUE(assignment2.ok());
    EXPECT_EQ(assignment2.value().device[1], 1u);
}

TEST(LayoutTest, MemoryCapacityLimitsPlacement)
{
    LayoutSpec spec = basicSpec(3, 2);
    spec.memoryDemand = {600, 600, 600};
    spec.memoryLimit = {0, 1000}; // device 1 fits only one offcode
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    EXPECT_EQ(assignment.value().offloadedCount(), 1u);
}

TEST(LayoutTest, BusObjectivePicksPriciestUnderCapacity)
{
    LayoutSpec spec = basicSpec(3, 2);
    spec.objective = LayoutObjective::MaximizeBusUsage;
    spec.busPrice = {0.9, 0.5, 0.45};
    spec.linkCapacity = {0, 1.0};
    auto assignment = solveLayout(spec);
    ASSERT_TRUE(assignment.ok());
    // Best packing under capacity 1.0: {0.5, 0.45} = 0.95 > 0.9.
    EXPECT_NEAR(assignment.value().objective, 0.95, 1e-9);
    EXPECT_EQ(assignment.value().device[0], 0u);
}

TEST(LayoutTest, NoCompatibleDeviceErrors)
{
    LayoutSpec spec = basicSpec(1, 2);
    spec.compatible[0] = {false, false};
    auto model = buildLayoutModel(spec);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.error().code, ErrorCode::DeviceIncompatible);
}

TEST(LayoutTest, ValidateRejectsBadAssignments)
{
    LayoutSpec spec = basicSpec(2, 2);
    spec.edges.push_back({0, 1, LayoutConstraint::Pull});
    EXPECT_FALSE(validateAssignment(spec, {0, 1}).ok());
    EXPECT_TRUE(validateAssignment(spec, {1, 1}).ok());
    EXPECT_FALSE(validateAssignment(spec, {0}).ok());   // size
    EXPECT_FALSE(validateAssignment(spec, {0, 5}).ok()); // range
}

// ---------------------------------------------------------------- Greedy

TEST(GreedyTest, FeasibleOnSimpleSpec)
{
    LayoutSpec spec = basicSpec(4, 3);
    spec.edges.push_back({0, 1, LayoutConstraint::Pull});
    spec.edges.push_back({2, 3, LayoutConstraint::Gang});
    auto assignment = greedyLayout(spec);
    ASSERT_TRUE(assignment.ok());
    EXPECT_TRUE(
        validateAssignment(spec, assignment.value().device).ok());
}

TEST(GreedyTest, NeverBeatsExactSolver)
{
    Rng rng(99);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 3 + rng.uniformInt(0, 5);
        const std::size_t k = 2 + rng.uniformInt(0, 2);
        LayoutSpec spec = basicSpec(n, k);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t d = 1; d < k; ++d)
                spec.compatible[i][d] = rng.chance(0.7);
        for (std::size_t e = 0; e < n / 2; ++e) {
            LayoutEdge edge;
            edge.a = rng.uniformInt(0, static_cast<std::int64_t>(n) - 1);
            edge.b = rng.uniformInt(0, static_cast<std::int64_t>(n) - 1);
            if (edge.a == edge.b)
                continue;
            edge.kind = static_cast<LayoutConstraint>(rng.uniformInt(0, 2));
            spec.edges.push_back(edge);
        }

        auto exact = solveLayout(spec);
        auto greedy = greedyLayout(spec);
        if (!exact.ok())
            continue; // infeasible either way
        ASSERT_TRUE(validateAssignment(spec, exact.value().device).ok());
        if (greedy.ok()) {
            EXPECT_LE(greedy.value().objective,
                      exact.value().objective + 1e-9)
                << "trial " << trial;
        }
    }
}

TEST(GreedyTest, SuboptimalOnContendedInstance)
{
    // The paper: "for complex scenarios a greedy solution is not
    // always optimal." Greedy (index order, first fit) packs offcode
    // 0 (price 0.9) first and then cannot fit 1 and 2 (0.5 + 0.45),
    // which the exact solver prefers.
    LayoutSpec spec = basicSpec(3, 2);
    spec.objective = LayoutObjective::MaximizeBusUsage;
    spec.busPrice = {0.9, 0.5, 0.45};
    spec.linkCapacity = {0, 1.0};

    auto exact = solveLayout(spec);
    auto greedy = greedyLayout(spec);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(greedy.ok());
    EXPECT_LT(greedy.value().objective, exact.value().objective);
}

/** Property sweep: exact solver output always validates. */
class LayoutPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LayoutPropertyTest, SolverOutputSatisfiesAllConstraints)
{
    Rng rng(GetParam() * 7919);
    const std::size_t n = 2 + rng.uniformInt(0, 8);
    const std::size_t k = 2 + rng.uniformInt(0, 3);
    LayoutSpec spec = basicSpec(n, k);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t d = 1; d < k; ++d)
            spec.compatible[i][d] = rng.chance(0.6);
    for (std::size_t e = 0; e < n; ++e) {
        if (!rng.chance(0.5))
            continue;
        LayoutEdge edge;
        edge.a = rng.uniformInt(0, static_cast<std::int64_t>(n) - 1);
        edge.b = rng.uniformInt(0, static_cast<std::int64_t>(n) - 1);
        if (edge.a == edge.b)
            continue;
        edge.kind = static_cast<LayoutConstraint>(rng.uniformInt(0, 2));
        spec.edges.push_back(edge);
    }
    spec.busPrice.assign(n, 0.0);
    for (auto &price : spec.busPrice)
        price = rng.uniform(0.05, 0.5);
    spec.linkCapacity.assign(k, 1.0);
    spec.linkCapacity[0] = 0.0;

    auto assignment = solveLayout(spec);
    if (!assignment.ok()) {
        EXPECT_EQ(assignment.error().code, ErrorCode::Infeasible);
        return;
    }
    EXPECT_TRUE(
        validateAssignment(spec, assignment.value().device).ok());
    EXPECT_NEAR(assignmentObjective(spec, assignment.value().device),
                assignment.value().objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomLayouts, LayoutPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 31));

} // namespace
} // namespace hydra::ilp
