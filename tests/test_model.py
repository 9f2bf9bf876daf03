import numpy as np
import pytest

from conftest import demo_truncation, random_partition, random_ssc_system
from lipstab import model
from lipstab.errors import ValidationError
from lipstab.model import (
    FEAS_TOL,
    BlockPartition,
    CharacteristicSet,
    LinearSystem,
    Perturbation,
    characteristic_generators,
    perturbed_system,
    residual_inverse_distance,
    validate,
)


def two_row_system():
    return LinearSystem(2, (("t1", [1.0, 0.0], 0.0), ("t2", [-1.0, 0.0], 0.0)))


class TestValidate:
    def test_well_formed_accepted(self):
        system = two_row_system()
        part = BlockPartition((("b1", ("t1",)), ("b2", ("t2",))))
        assert validate(system, part).accepted

    def test_partition_missing_label_rejected(self):
        system = two_row_system()
        part = BlockPartition((("b1", ("t1",)),))
        report = validate(system, part)
        assert not report.accepted
        assert any("does not cover" in issue for issue in report.issues)

    def test_row_length_mismatch_rejected(self):
        system = LinearSystem(2, (("t1", [1.0, 0.0, 3.0], 0.0),))
        report = validate(system)
        assert not report.accepted

    def test_duplicate_labels_rejected(self):
        system = LinearSystem(1, (("t", [1.0], 0.0), ("t", [2.0], 0.0)))
        assert any("duplicate" in i for i in validate(system).issues)

    def test_overlapping_blocks_rejected(self):
        system = two_row_system()
        part = BlockPartition((("b1", ("t1", "t2")), ("b2", ("t2",))))
        assert any("more than one block" in i for i in validate(system, part).issues)

    def test_zero_rows_permitted(self):
        system = LinearSystem(2, (("z", [0.0, 0.0], 1.0),))
        assert validate(system).accepted

    def test_raise_if_rejected(self):
        system = two_row_system()
        part = BlockPartition((("b1", ("t1",)),))
        with pytest.raises(ValidationError):
            validate(system, part).raise_if_rejected()

    def test_messages_and_their_order(self):
        inf, nan = float("inf"), float("nan")
        system = LinearSystem(2, (("a", [1, 2], 0), ("a", [1, inf], 1),
                                  ("b", [1], nan), ("c", [1, 2, 3], inf)))
        part = BlockPartition((("B", ("a", "x")), ("B", ("a",))))
        assert validate(system, part).issues == (
            "duplicate row label 'a'",
            "row 'a' has non-finite coefficients",
            "row 'b' has 1 entries in a 2-dimensional system",
            "row 'b' has non-finite rhs",
            "row 'c' has 3 entries in a 2-dimensional system",
            "row 'c' has non-finite rhs",
            "duplicate block label 'B'",
            "labels appear in more than one block: ['a']",
            "partition does not cover index set (missing ['b', 'c'])",
            "partition references unknown labels ['x']",
        )

    def test_messages_follow_row_order_on_a_rectangular_system(self):
        # the repeat is reported at the later row, after the first row's issue
        system = LinearSystem(2, (("a", [1.0, float("nan")], 0.0), ("b", [1.0, 2.0], 0.0),
                                  ("a", [0.0, 0.0], 0.0)))
        assert validate(system).issues == ("row 'a' has non-finite coefficients",
                                           "duplicate row label 'a'")

    def test_empty_system(self):
        assert validate(LinearSystem(2, ())).issues == ("system has no rows",)

    def test_ragged_system_has_no_matrix(self):
        system = LinearSystem(2, (("t1", [1.0, 0.0], 0.0), ("t2", [1.0], 0.0)))
        with pytest.raises(ValidationError):
            system.coefficient_matrix()

    def test_scalar_coefficients_of_a_one_dimensional_system(self):
        # not a rectangular (m, 1) stack, but every row is one entry long
        system = LinearSystem(1, (("t1", 2, 1), ("t2", [-1.0], 0)))
        assert system.coefficient_matrix().tolist() == [[2.0], [-1.0]]
        assert system.rows[0][1].base is system.coefficient_matrix()
        assert validate(system).accepted

    def test_partition_messages_follow_block_order(self):
        system = LinearSystem(1, (("a", [1.0], 0.0), ("b", [1.0], 0.0)))
        part = BlockPartition((("B", ()), ("C", ("a",)), ("B", ("b", "a"))))
        assert validate(system, part).issues == (
            "block 'B' is empty",
            "duplicate block label 'B'",
            "labels appear in more than one block: ['a']",
        )

    def test_partition_labels_become_strings(self):
        part = BlockPartition([(1, [2, 3]), ("b", "t")])
        assert part.blocks == (("1", ("2", "3")), ("b", ("t",)))
        assert BlockPartition.maximum(iter(["x", "y"])).blocks == (("x", ("x",)),
                                                                   ("y", ("y",)))


class TestOwnedArrays:
    def test_caller_vector_stays_writeable(self):
        a = np.array([1.0, 2.0])
        system = LinearSystem(2, (("t", a, 0.0),))
        a[0] = 5.0
        assert system.rows[0][1].tolist() == [1.0, 2.0]

    def test_rows_given_as_views_are_copied(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        system = LinearSystem(2, (("t1", A[0], 0.0), ("t2", A[1], 1.0)))
        A[0, 0] = 9.0
        assert system.rows[0][1].tolist() == [1.0, 2.0]
        assert system.coefficient_matrix().tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_arrays_are_stored_once_and_read_only(self):
        system = two_row_system()
        A, b = system.coefficient_matrix(), system.rhs_vector()
        assert system.coefficient_matrix() is A and system.rhs_vector() is b
        assert system.labels is system.labels
        assert A.flags.owndata and not A.flags.writeable and not b.flags.writeable
        for i, (_, a, _) in enumerate(system.rows):
            assert a.base is A and not a.flags.writeable
            assert np.array_equal(a, A[i])

    def test_characteristic_set_copies_the_caller_arrays(self):
        c, d = np.array([[1.0, 0.0]]), np.array([0.0])
        gens = CharacteristicSet(c, d, ("t",))
        c[0, 0], d[0] = 2.0, 3.0
        assert gens.coefficients.tolist() == [[1.0, 0.0]] and gens.offsets.tolist() == [0.0]
        assert not gens.coefficients.flags.writeable and not gens.offsets.flags.writeable


class TestColumns:
    def test_objects_refuse_assignment(self):
        system = two_row_system()
        part = BlockPartition.maximum(system.labels)
        for obj, name in ((system, "rows"), (system, "dimension"), (part, "blocks")):
            with pytest.raises(AttributeError):
                setattr(obj, name, ())

    def test_maximum_equals_its_singletons_written_out(self):
        labels = ("a", "b", "a", "")
        part = BlockPartition.maximum(labels)
        explicit = BlockPartition(tuple((t, (t,)) for t in labels))
        assert part.block_of() == explicit.block_of()
        assert part.block_labels == labels and part.blocks == explicit.blocks

    def test_subsystem_and_perturbed_system_index_the_columns(self):
        system = LinearSystem(2, (("a", [1.0, 0.0], 1.0), ("b", [0.0, 1.0], 2.0),
                                  ("c", [1.0, 1.0], 3.0)))
        sub = system.subsystem(["c", "a"])
        assert sub.labels == ("a", "c") and sub.rhs_vector().tolist() == [1.0, 3.0]
        assert sub.coefficient_matrix().tolist() == [[1.0, 0.0], [1.0, 1.0]]
        assert not sub.coefficient_matrix().flags.writeable
        part = BlockPartition((("x", ("a", "c")), ("y", ("b",))))
        pert = perturbed_system(system, part, Perturbation((0.5, -1.0)))
        assert pert.rhs_vector().tolist() == [1.5, 1.0, 3.5]
        assert pert.labels is system.labels
        assert pert.coefficient_matrix() is system.coefficient_matrix()
        assert not pert.rhs_vector().flags.writeable

    def test_validated_remembers_acceptance_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "validate",
                            lambda *args, real=model.validate: calls.append(args)
                            or real(*args))
        system = two_row_system()
        part = BlockPartition.maximum(system.labels)
        for _ in range(3):
            model.validated(system, part)
            model.validated(system)
        assert len(calls) == 1
        short = BlockPartition((("b1", ("t1",)),))
        for _ in range(2):  # a rejection is checked again at every call
            with pytest.raises(ValidationError, match="does not cover"):
                model.validated(system, short)
        assert len(calls) == 3
        # the partition was accepted with other labels, so it is checked again
        other = LinearSystem(2, (("t1", [1.0, 0.0], 0.0), ("t3", [0.0, 1.0], 0.0)))
        model.validated(other)
        with pytest.raises(ValidationError, match="missing"):
            model.validated(other, part)


class TestResidualInverseDistance:
    def test_halfspace_violated(self):
        system = LinearSystem(2, (("t", [1.0, 0.0], 1.0),))
        part = BlockPartition.maximum(system.labels)
        d = residual_inverse_distance(system, part, Perturbation((0.0,)), [2.0, 0.0])
        assert d == pytest.approx(1.0)

    def test_halfspace_feasible_clips(self):
        system = LinearSystem(2, (("t", [1.0, 0.0], 1.0),))
        part = BlockPartition.maximum(system.labels)
        d = residual_inverse_distance(system, part, Perturbation((0.0,)), [0.0, 0.0])
        assert d == 0.0

    def test_two_rows_one_block(self):
        # hand enumeration: residuals 0.3 and -0.3, block sup 0.3
        system = two_row_system()
        part = BlockPartition.minimum(system.labels)
        d = residual_inverse_distance(system, part, Perturbation((0.0,)), [0.3, 0.0])
        assert d == pytest.approx(0.3)

    def test_nonnegative_and_zero_iff_feasible(self, rng):
        for _ in range(40):
            system, xhat = random_ssc_system(rng, n=3, m=8)
            part = random_partition(rng, system.labels, 3)
            p = Perturbation(tuple(rng.normal(size=3) * 0.2))
            x = xhat + rng.normal(size=3)
            d = residual_inverse_distance(system, part, p, x)
            assert d >= 0.0
            feasible = perturbed_system(system, part, p).residuals(x).max() <= FEAS_TOL
            assert (d <= 1e-12) == feasible

    def test_one_lipschitz_in_p(self, rng):
        system, xhat = random_ssc_system(rng, n=3, m=10)
        part = random_partition(rng, system.labels, 4)
        for _ in range(60):
            p = rng.normal(size=4)
            q = rng.normal(size=4)
            x = xhat + rng.normal(size=3)
            dp = residual_inverse_distance(system, part, Perturbation(tuple(p)), x)
            dq = residual_inverse_distance(system, part, Perturbation(tuple(q)), x)
            assert abs(dp - dq) <= np.abs(p - q).max() + 1e-12


class TestCharacteristicGenerators:
    def test_single_shift(self):
        system = LinearSystem(2, (("t", [1.0, 2.0], 3.0),))
        part = BlockPartition.maximum(system.labels)
        gens = characteristic_generators(system, part, Perturbation((0.5,)))
        assert np.allclose(gens.coefficients, [[1.0, 2.0]])
        assert np.allclose(gens.offsets, [3.5])

    def test_zero_perturbation_partition_independent(self, rng):
        system, _ = random_ssc_system(rng, n=3, m=12)
        parts = [
            BlockPartition.minimum(system.labels),
            BlockPartition.maximum(system.labels),
            random_partition(rng, system.labels, 4),
        ]
        references = None
        for part in parts:
            gens = characteristic_generators(
                system, part, Perturbation.zero(part))
            if references is None:
                references = gens
            else:
                assert np.array_equal(gens.coefficients, references.coefficients)
                assert np.array_equal(gens.offsets, references.offsets)

    def test_per_block_not_per_row_shift(self):
        system = LinearSystem(1, (("a", [1.0], 0.0), ("b", [2.0], 0.0),
                                  ("c", [3.0], 0.0)))
        part = BlockPartition((("b1", ("a", "b")), ("b2", ("c",))))
        gens = characteristic_generators(system, part, Perturbation((1.0, -1.0)))
        assert np.allclose(gens.offsets, [1.0, 1.0, -1.0])

    def test_generator_count_matches_rows(self):
        system = demo_truncation(5)
        part = BlockPartition.maximum(system.labels)
        gens = characteristic_generators(system, part, Perturbation.zero(part))
        assert len(gens) == len(system.rows)

    def test_refinement_changes_arity_only(self, rng):
        system, _ = random_ssc_system(rng, n=2, m=6)
        fine = BlockPartition.maximum(system.labels)
        coarse = BlockPartition.minimum(system.labels)
        g_fine = characteristic_generators(system, fine, Perturbation.zero(fine))
        g_coarse = characteristic_generators(system, coarse, Perturbation.zero(coarse))
        assert np.array_equal(g_fine.offsets, g_coarse.offsets)
        assert len(Perturbation.zero(fine).values) == 6
        assert len(Perturbation.zero(coarse).values) == 1
