"""Recorded mitigation margins from the first full run of the default
benchmark families on this implementation.

``verify.check_tax_mitigation`` re-measures every recorded quantity (each
method's per-probe taxes, the gain ratio and, for the policy family, the DPO
drop ratio) and holds it to these values within its ``golden_tol``; its
qualitative gates (strict per-probe tax ordering, gain-ratio floors) are
checked independently of these numbers. Regenerate with
``python -m orthoproj.goldens`` after an intentional change to the default
families or training settings.
"""

from __future__ import annotations

GOLDEN_MARGINS: dict = {'policy_sft_dpo': {'0': {'dpo_drop_ratio': 0.7679046199769868,
                          'gain_ratio': 0.8137892514005529,
                          'tax_naive': [0.44543461180943034, 0.801107815133185],
                          'tax_ortho': [0.16767987918686456, 0.2551524575764432],
                          'tax_replay': [0.04754648181701571, 0.18551448963652728]},
                    '1': {'dpo_drop_ratio': 0.8694758797227644,
                          'gain_ratio': 0.8609053730283189,
                          'tax_naive': [0.22848433591304596, 0.42770806154807395],
                          'tax_ortho': [0.11809645661433144, 0.08964072279251134],
                          'tax_replay': [0.018039143058676155, 0.10497065755774182]},
                    '2': {'dpo_drop_ratio': 0.8934761852615528,
                          'gain_ratio': 0.935887475016115,
                          'tax_naive': [0.07865484583049698, 0.2684982150612447],
                          'tax_ortho': [0.046821267208426054, 0.08010061376927258],
                          'tax_replay': [0.011732690900492226, 0.05322507773483465]}},
 'regression_mlp': {'0': {'gain_ratio': 0.8831006175043635,
                          'tax_naive': [0.4954219152239647, 0.43549820043301307],
                          'tax_ortho': [0.06792856378398726, 0.023972940599169046],
                          'tax_replay': [0.12757351339529444, 0.06195938513655458]},
                    '1': {'gain_ratio': 0.7871217810834343,
                          'tax_naive': [0.49142559628887517, 0.4590825322871651],
                          'tax_ortho': [0.06999864783435639, 0.07181060226307168],
                          'tax_replay': [0.11186393063293099, 0.10800114553891971]},
                    '2': {'gain_ratio': 0.8818487561421807,
                          'tax_naive': [0.5117987599172622, 0.4271207731904767],
                          'tax_ortho': [0.12756973452307452, 0.07668816993219973],
                          'tax_replay': [0.16750827065180562, 0.135247256548508]}}}


def _measure() -> dict:
    from .config import DEFAULTS
    from .verify import MITIGATION_SEEDS, MITIGATION_STEMS, _mitigation_margins

    return {DEFAULTS[stem].family_kind: {str(seed): _mitigation_margins(stem, seed)
                                         for seed in MITIGATION_SEEDS}
            for stem in MITIGATION_STEMS}


def main() -> None:
    import pprint
    from pathlib import Path

    recorded = _measure()
    path = Path(__file__)
    text = path.read_text()
    marker = "GOLDEN_MARGINS: dict = "
    head, _, tail = text.partition(marker)
    tail = tail.split("\n\n", 1)[1]
    body = pprint.pformat(recorded, width=88, sort_dicts=True)
    path.write_text(f"{head}{marker}{body}\n\n{tail}")
    print(f"recorded margins for {sum(len(v) for v in recorded.values())} family/seed cells")


if __name__ == "__main__":
    main()
