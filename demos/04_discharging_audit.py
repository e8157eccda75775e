"""Exact discharging: initial charges, transfer rules, and the case audit.

Charges are integers counted in sixths, so conservation is a hard
equality: vertices start at 2*deg - 6, faces at deg - 6, and the grand
total is -12 on every connected plane graph.  After the five transfer
rules run, every element whose neighborhood satisfies the structural
requirements must end nonnegative - the audit checks exactly that.
"""

from dpcolor import (
    apply_rules,
    audit_cases,
    charge_str,
    initial_charges,
    load_catalog,
)
from dpcolor.fileio import audit_to_table

# initial charges always total -12
for name in ("k2", "k4", "cube", "bowtie"):
    ledger = initial_charges(load_catalog(name))
    print(f"{name:<8} initial total = {charge_str(ledger.initial_total)}")

# the bowtie ledger: only the degree-4 center pays (1 to each triangle)
bowtie = load_catalog("bowtie")
ledger = apply_rules(bowtie)
print("\nbowtie transfers:")
for t in ledger.transfers:
    print(f"  {t.rule}: {t.source} -> {t.target}  amount {charge_str(t.sixths)}")
print("total after rules:", charge_str(audit_cases(bowtie, ledger).final_total))

# a fully worked audit on an instance whose triangle meets every hypothesis
aug = load_catalog("aug_triangle_full")
report = audit_cases(aug, apply_rules(aug))
print("\naudit of aug_triangle_full:")
print(audit_to_table(report))

