"""Committed mutants of the certificate paths, run by ``test_mutants.py``.

Each mutant names a file under the repository root, a text that occurs
in it exactly once, the text that replaces it, and the tests that must
fail on the mutated copy.  A certificate that no test can make fail is
unchecked, so every certificate brings a mutant of its failing path with
the test that kills it; a mutant leaves this list only with the code it
mutates.
"""

MUTANTS = {
    # the failing branch of ``f-eval`` passes
    "f-eval-failing-label-passes": {
        "file": "src/clusterqq/cli.py",
        "old": '''"ok": v in labels}''',
        "new": '''"ok": v in labels or True}''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_f_eval_with_one_knit_gvector_changed",
        ],
    },
    # ``qq verify`` reports a pass whatever the relation gives
    "qq-verify-passes": {
        "file": "src/clusterqq/cli.py",
        "old": '''"ok": qq_check(ev, prefix, i, r),''',
        "new": '''"ok": qq_check(ev, prefix, i, r) or True,''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_qq_verify_on_a_shifted_variable",
        ],
    },
    # ``qqstar verify`` reports a pass; its preconditions still run
    "qqstar-verify-passes": {
        "file": "src/clusterqq/cli.py",
        "old": '''"ok": qqstar_check(ev, (), a, b, r_),''',
        "new": '''"ok": qqstar_check(ev, (), a, b, r_) or True,''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_qqstar_verify_on_a_shifted_variable",
        ],
    },
    # the Wronskian det = 1 entry compares nothing
    "wronskian-determinant-passes": {
        "file": "src/clusterqq/wronskian.py",
        "old": '''dets.append({"r": r, "ok": det.matches(KSeries.one(rs, det.cutoff2))})''',
        "new": '''dets.append({"r": r, "ok": True})''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_wronskian_with_a_determinant_off_one",
        ],
    },
    # the Bruhat certificate without its exchange half: det = 1 unchecked
    "bruhat-ok-drops-exchange": {
        "file": "src/clusterqq/wronskian.py",
        "old": '''ok = lhs == inner * d**size and lhs == det * inner''',
        "new": '''ok = lhs == det * inner''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_bruhat_with_one_entry_of_m_changed",
        ],
    },
    # the Bruhat certificate without its Desnanot-Jacobi half
    "bruhat-ok-drops-desnanot-jacobi": {
        "file": "src/clusterqq/wronskian.py",
        "old": '''ok = lhs == inner * d**size and lhs == det * inner''',
        "new": '''ok = lhs == inner * d**size''',
        "kills": [
            "tests/test_wronskian.py::TestBruhatCertificates"
            "::test_failing_twin_desnanot_jacobi",
        ],
    },
    # the n = 2 sampling rule forgets the north minor: other points drawn
    "bruhat-n2-rule-drops-north": {
        "file": "src/clusterqq/wronskian.py",
        "old": '''m[0][1], m[1][0], m[1][1], _int_minor(m, range(2), range(2), memo)''',
        "new": '''m[0][1], m[1][0], m[1][1]''',
        "kills": [
            "tests/test_wronskian.py::TestBruhatCertificates"
            "::test_n2_command_stdout",
        ],
    },
    # ``sl2 factor`` forgets pairwise compatibility
    "sl2-factor-ignores-compatibility": {
        "file": "src/clusterqq/cli.py",
        "old": '''"ok": compatible and rebuilt[1] == key[1],''',
        "new": '''"ok": rebuilt[1] == key[1],''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_sl2_factor_with_crossing_segments",
        ],
    },
    # a c-vector's sign read off its first coefficient alone
    "cvector-sign-reads-one-coefficient": {
        "file": "src/clusterqq/seed.py",
        "old": '''    if all(x > 0 for x in c.values()):
        return 1''',
        "new": '''    if next(iter(c.values())) > 0:
        return 1''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_cvector_sign_of_a_mixed_vector_that_starts_positive",
        ],
    },
    # a tied top term is taken as the leading one
    "top-accepts-a-tie": {
        "file": "src/clusterqq/qseries.py",
        "old": '''if len(order) > 1 and order[1][0] == h:''',
        "new": '''if len(order) > 1 and order[1][0] > h:''',
        "kills": [
            "tests/test_qseries.py::TestSeries::test_top_reads_the_kept_order",
        ],
    },
    # a product's field bound is the larger factor's, not their sum: a
    # product of two wide series skips the check that would reject it
    "series-product-bound-is-the-max": {
        "file": "src/clusterqq/qseries.py",
        "old": '''w = self._w + other._w''',
        "new": '''w = max(self._w, other._w)''',
        "kills": [
            "tests/test_keycodec.py::TestFieldBound::test_a_product_adds_the_bounds",
        ],
    },
    # a leading coefficient ±2 is inverted; the eps guard still stops the
    # loop, so only the message tells the two refusals apart
    "inverse-accepts-leading-two": {
        "file": "src/clusterqq/qseries.py",
        "old": '''if c0 not in (1, -1):''',
        "new": '''if c0 not in (1, -1, 2, -2):''',
        "kills": [
            "tests/test_qseries.py::TestSeries"
            "::test_inverse_needs_a_unit_leading_coefficient",
        ],
    },
    # an arrow looked up backwards
    "mult-reads-the-reversed-arrow": {
        "file": "src/clusterqq/quiver.py",
        "old": '''return self.out.get(src, {}).get(dst, 0)''',
        "new": '''return self.out.get(dst, {}).get(src, 0)''',
        "kills": [
            "tests/test_quiver.py::TestBasicQuiver::test_a3_local_arrows",
            "tests/test_bench_digest.py::test_gvec_cli_matches_its_digest[0]",
        ],
    },
    # knitting sums over the out-arrows of the red above, not the green's
    "knit-reads-the-arrows-above": {
        "file": "src/clusterqq/gvector.py",
        "old": '''reads[v] = above, q.out.get(v, {})''',
        "new": '''reads[v] = above, q.out.get(above, {})''',
        "kills": [
            "tests/test_gvector.py::TestRankThree::test_knit_values",
        ],
    },
    # the in-place transport keeps a coordinate that reaches 0
    "transport-keeps-zero-coordinates": {
        "file": "src/clusterqq/seed.py",
        "old": '''                del comp[v]''',
        "new": '''                comp[v] = 0''',
        "kills": [
            "tests/test_seed.py::TestWorkingSeedAgainstOracle"
            "::test_seeded_walks[A3]",
        ],
    },
    # ``seed sweep`` compares the supports of the g-vectors only
    "seed-sweep-compares-supports": {
        "file": "src/clusterqq/cli.py",
        "old": '''if g != expected[m][v]''',
        "new": '''if g.keys() != expected[m][v].keys()''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_seed_sweep_with_one_sweep_coefficient_doubled",
        ],
    },
    # the freeze hands the working seed's g-vector dicts to the frozen seed
    "freeze-shares-gvector-dicts": {
        "file": "src/clusterqq/seed.py",
        "old": '''_pack({v: dict(comp) for v, comp in self.g.items()}),''',
        "new": '''_pack(self.g),''',
        "kills": [
            "tests/test_seed.py::TestNoSharedDicts"
            "::test_frozen_seeds_and_the_base_stay_as_they_were",
        ],
    },
    # in-place mutation leaves the 2-cycles it creates
    "mutate-keeps-2-cycles": {
        "file": "src/clusterqq/quiver.py",
        "old": '''k = min(out[a].get(b, 0), out[b].get(a, 0))''',
        "new": '''k = 0''',
        "kills": [
            "tests/test_surgery.py::TestMutationAgainstOracle"
            "::test_walks_against_matrix_mutation",
        ],
    },
    # the Ptolemy correction bracket with its sign flipped
    "ptolemy-bracket-sign": {
        "file": "src/clusterqq/sl2.py",
        "old": '''2 * (b - c) * _VARPI2''',
        "new": '''2 * (c - b) * _VARPI2''',
        "kills": [
            "tests/test_sl2.py::TestPtolemy::test_t_system_instance",
        ],
    },
    # the segment fast path takes floats too, unvalidated
    "segment-fast-path-admits-floats": {
        "file": "src/clusterqq/sl2.py",
        "old": '''if type(r) is int and type(s) is int:''',
        "new": '''if type(r) in (int, float) and type(s) in (int, float):''',
        "kills": [
            "tests/test_sl2.py::TestSegmentFace::test_every_error_message",
        ],
    },
    # a flip-lower relation on the wrong quadrilateral: a true relation
    # still, so only the pin of the quadrilaterals tells
    "flip-lower-reads-another-quadrilateral": {
        "file": "src/clusterqq/sl2.py",
        "old": '''(-INF, v, v + 1, v + 2)''',
        "new": '''(-INF, v, v + 1, v + 3)''',
        "kills": [
            "tests/test_sl2.py::TestOneRelation"
            "::test_exchange_relations_pass_their_quadrilaterals",
        ],
    },
    # a red's oblique arrows leave the red, not its green
    "coxeter-red-keeps-its-oblique-arrows": {
        "file": "src/clusterqq/quiver.py",
        "old": '''            src[green] = 1
            src = out.setdefault(green, {})''',
        "new": '''            src[green] = 1''',
        "kills": [
            # quiver build --type D5 --depth-below 2
            "tests/test_cli.py::TestGoldenCombinatorics::test_quiver_stdout"
            "[args3-4de3d3e7ddbfb8ddabf5456e64c8318ceaa19e57e9bd067d5341270e4da509dc]",
        ],
    },
    # the finite core frozen one step below its top rim
    "core-rim-moved": {
        "file": "src/clusterqq/quiver.py",
        "old": '''frozen |= {(i, top), (i, bottom)}''',
        "new": '''frozen |= {(i, top - 2), (i, bottom)}''',
        "kills": [
            "tests/test_quiver.py::TestCoxeterWindow::test_a2_core",
        ],
    },
    # ``seed sweep`` passes whatever the sweeps give
    "seed-sweep-passes": {
        "file": "src/clusterqq/cli.py",
        "old": '''"ok": not mismatch,''',
        "new": '''"ok": True,''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_seed_sweep_with_one_sweep_coordinate_changed",
        ],
    },
    # ``gvec compare`` passes whatever the three methods give
    "gvec-compare-passes": {
        "file": "src/clusterqq/cli.py",
        "old": '''"ok": bool(knit) and bool(braid) and not mismatch,''',
        "new": '''"ok": True,''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_gvec_compare_with_one_block_coordinate_changed",
        ],
    },
    # ``sl2 ptolemy`` passes; its classes are still computed
    "ptolemy-check-passes": {
        "file": "src/clusterqq/sl2.py",
        "old": '''"ok": _ptolemy(r, rp, s + 2, sp + 2, d),''',
        "new": '''"ok": _ptolemy(r, rp, s + 2, sp + 2, d) or True,''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_ptolemy_with_a_neighbouring_segment",
        ],
    },
    # every exchange relation of a seed passes
    "exchange-relations-pass": {
        "file": "src/clusterqq/sl2.py",
        "old": '''"ok": _ptolemy(*quad, d)}''',
        "new": '''"ok": _ptolemy(*quad, d) or True}''',
        "kills": [
            "tests/test_acceptance.py::TestFailingTwins"
            "::test_exchange_with_a_neighbouring_segment",
        ],
    },
    # a Wronskian shift equation passes once both minors are built
    "wronskian-shift-equation-passes": {
        "file": "src/clusterqq/wronskian.py",
        "old": '''ok, note = lhs.matches(rhs), ""''',
        "new": '''ok, note = lhs.matches(rhs) or True, ""''',
        "kills": [
            "tests/test_acceptance.py::TestMinorSystems"
            "::test_three_types_and_negative_control",
        ],
    },
    # a shift equation between weights with no block passes
    "wronskian-missing-block-passes": {
        "file": "src/clusterqq/wronskian.py",
        "old": '''ok, note = False, str(exc)''',
        "new": '''ok, note = True, str(exc)''',
        "kills": [
            # wronskian check --type A2 --system-word 2,1 --r 0..0 --depth 4
            "tests/test_cli.py::TestGoldenCombinatorics"
            "::test_failing_wronskian_control_stdout"
            "[args0-a8969db2d83315e59f3d1c695e9192c58929b3e09955bf6ebd86a0cd81d257b2]",
        ],
    },
    # a block minor passes for its Q-variable once both are computed
    "wronskian-minor-identification-passes": {
        "file": "src/clusterqq/wronskian.py",
        "old": '''                        ok = m0.block_minor(i, k, l).matches(
                            ev.q_bar(w, i, r + 2 * k + i - 1)
                        )''',
        "new": '''                        ok = m0.block_minor(i, k, l).matches(
                            ev.q_bar(w, i, r + 2 * k + i - 1)
                        ) or True''',
        "kills": [
            "tests/test_wronskian.py::TestBlockLabels"
            "::test_failing_twin_swapped_words",
        ],
    },
    # the window swaps the roles of nodes 1 and 2 in the band: each type
    # stays a consistent quiver, but no longer commutes with its diagram
    # automorphisms
    "coxeter-window-swaps-nodes-one-and-two": {
        "file": "src/clusterqq/quiver.py",
        "old": '''rs, l, m = datum.rs, datum.l, datum.m''',
        "new": '''rs, l, m = datum.rs, datum.l, (datum.m[1], datum.m[0], *datum.m[2:])''',
        "kills": [
            "tests/test_automorphisms.py::TestWindows"
            "::test_window_commutes[A3-reversal]",
        ],
    },
}
