#!/usr/bin/env python3
"""One-time generator for the vendored space-group catalog.

Each of the 230 space groups is encoded as a short list of generator
triplets (plus centering translations and, for centrosymmetric groups, the
inversion translation in the origin-1 setting). The full operation list is
obtained by group closure with exact rational arithmetic, Wyckoff positions
are derived by enumerating fixed-point subspaces of the operations, closing
them under intersection, and classifying the components into orbits under
the group action. Letters are assigned in order of increasing multiplicity
(general position last), ties broken by the canonical representative.

Heavy cross-checks run before anything is written:
  * operation count == point-group order x centering count, per group
  * no spurious pure translations (closure canary)
  * total Wyckoff positions across all groups == 1731
  * golden multiplicity signatures for groups spanning all crystal systems
  * numeric orbit-size oracle for every derived position

Usage: python tools/make_catalog.py [output-path]
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from symadit.triplet import AffineForm, format_triplet, parse_triplet

F = Fraction

# Generic free parameters with prime denominators: no rational relation with
# denominator dividing 12 can vanish accidentally at this point.
GENERIC = (F(1, 101), F(1, 103), F(1, 107))

CENTERINGS = {
    "P": [],
    "A": [(0, F(1, 2), F(1, 2))],
    "B": [(F(1, 2), 0, F(1, 2))],
    "C": [(F(1, 2), F(1, 2), 0)],
    "I": [(F(1, 2), F(1, 2), F(1, 2))],
    "F": [(0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 0)],
    "R": [(F(2, 3), F(1, 3), F(1, 3)), (F(1, 3), F(2, 3), F(2, 3))],
}

POINT_GROUP_ORDER = {
    "1": 1, "-1": 2,
    "2": 2, "m": 2, "2/m": 4,
    "222": 4, "mm2": 4, "m2m": 4, "2mm": 4, "mmm": 8,
    "4": 4, "-4": 4, "4/m": 8, "422": 8, "4mm": 8,
    "-42m": 8, "-4m2": 8, "4/mmm": 16,
    "3": 3, "-3": 6, "32": 6, "3m": 6, "-3m": 12,
    "6": 6, "-6": 6, "6/m": 12, "622": 12, "6mm": 12,
    "-62m": 12, "-6m2": 12, "6/mmm": 24,
    "23": 12, "m-3": 24, "432": 24, "-43m": 24, "m-3m": 48,
}

# ---------------------------------------------------------------------------
# Group table: (number, symbol, centering, [generator triplets], inversion
# translation or None). Symbols write screw axes with an underscore (P2_1/c)
# so the point-group order can be derived unambiguously. Inversion "w" is
# given in the setting where the rotation generators sit at the origin; a
# nonzero w triggers an origin shift by w/2 so the published setting always
# has the inversion at the origin (ITA origin choice 2 where two origins
# exist).
# ---------------------------------------------------------------------------

GROUPS = [
    # --- triclinic ---
    (1, "P1", "P", [], None),
    (2, "P-1", "P", [], "0,0,0"),
    # --- monoclinic (unique axis b, cell choice 1) ---
    (3, "P2", "P", ["-x,y,-z"], None),
    (4, "P2_1", "P", ["-x,y+1/2,-z"], None),
    (5, "C2", "C", ["-x,y,-z"], None),
    (6, "Pm", "P", ["x,-y,z"], None),
    (7, "Pc", "P", ["x,-y,z+1/2"], None),
    (8, "Cm", "C", ["x,-y,z"], None),
    (9, "Cc", "C", ["x,-y,z+1/2"], None),
    (10, "P2/m", "P", ["-x,y,-z"], "0,0,0"),
    (11, "P2_1/m", "P", ["-x,y+1/2,-z"], "0,0,0"),
    (12, "C2/m", "C", ["-x,y,-z"], "0,0,0"),
    (13, "P2/c", "P", ["-x,y,-z+1/2"], "0,0,0"),
    (14, "P2_1/c", "P", ["-x,y+1/2,-z+1/2"], "0,0,0"),
    (15, "C2/c", "C", ["-x,y,-z+1/2"], "0,0,0"),
    # --- orthorhombic 222 ---
    (16, "P222", "P", ["-x,-y,z", "-x,y,-z"], None),
    (17, "P222_1", "P", ["-x,-y,z+1/2", "x,-y,-z"], None),
    (18, "P2_12_12", "P", ["-x,-y,z", "-x+1/2,y+1/2,-z"], None),
    (19, "P2_12_12_1", "P", ["-x+1/2,-y,z+1/2", "-x,y+1/2,-z+1/2"], None),
    (20, "C222_1", "C", ["-x,-y,z+1/2", "x,-y,-z"], None),
    (21, "C222", "C", ["-x,-y,z", "-x,y,-z"], None),
    (22, "F222", "F", ["-x,-y,z", "-x,y,-z"], None),
    (23, "I222", "I", ["-x,-y,z", "-x,y,-z"], None),
    (24, "I2_12_12_1", "I", ["-x+1/2,-y,z+1/2", "-x,y+1/2,-z+1/2"], None),
    # --- orthorhombic mm2 ---
    (25, "Pmm2", "P", ["-x,-y,z", "x,-y,z"], None),
    (26, "Pmc2_1", "P", ["-x,-y,z+1/2", "x,-y,z+1/2"], None),
    (27, "Pcc2", "P", ["-x,-y,z", "x,-y,z+1/2"], None),
    (28, "Pma2", "P", ["-x,-y,z", "x+1/2,-y,z"], None),
    (29, "Pca2_1", "P", ["-x,-y,z+1/2", "x+1/2,-y,z"], None),
    (30, "Pnc2", "P", ["-x,-y,z", "x,-y+1/2,z+1/2"], None),
    (31, "Pmn2_1", "P", ["-x+1/2,-y,z+1/2", "-x,y,z"], None),
    (32, "Pba2", "P", ["-x,-y,z", "x+1/2,-y+1/2,z"], None),
    (33, "Pna2_1", "P", ["-x,-y,z+1/2", "x+1/2,-y+1/2,z"], None),
    (34, "Pnn2", "P", ["-x,-y,z", "x+1/2,-y+1/2,z+1/2"], None),
    (35, "Cmm2", "C", ["-x,-y,z", "x,-y,z"], None),
    (36, "Cmc2_1", "C", ["-x,-y,z+1/2", "x,-y,z+1/2"], None),
    (37, "Ccc2", "C", ["-x,-y,z", "x,-y,z+1/2"], None),
    (38, "Amm2", "A", ["-x,-y,z", "x,-y,z"], None),
    (39, "Aem2", "A", ["-x,-y,z", "x,-y+1/2,z"], None),
    (40, "Ama2", "A", ["-x,-y,z", "x+1/2,-y,z"], None),
    (41, "Aea2", "A", ["-x,-y,z", "x+1/2,-y+1/2,z"], None),
    (42, "Fmm2", "F", ["-x,-y,z", "x,-y,z"], None),
    (43, "Fdd2", "F", ["-x,-y,z", "x+1/4,-y+1/4,z+1/4"], None),
    (44, "Imm2", "I", ["-x,-y,z", "x,-y,z"], None),
    (45, "Iba2", "I", ["-x,-y,z", "x+1/2,-y+1/2,z"], None),
    (46, "Ima2", "I", ["-x,-y,z", "x+1/2,-y,z"], None),
    # --- orthorhombic mmm ---
    (47, "Pmmm", "P", ["-x,-y,z", "-x,y,-z"], "0,0,0"),
    (48, "Pnnn", "P", ["-x,-y,z", "-x,y,-z"], "1/2,1/2,1/2"),
    (49, "Pccm", "P", ["-x,-y,z", "-x,y,-z+1/2"], "0,0,0"),
    (50, "Pban", "P", ["-x,-y,z", "-x,y,-z"], "1/2,1/2,0"),
    (51, "Pmma", "P", ["-x+1/2,-y,z", "-x,y,-z"], "0,0,0"),
    (52, "Pnna", "P", ["-x+1/2,-y,z", "-x+1/2,y+1/2,-z+1/2"], "0,0,0"),
    (53, "Pmna", "P", ["-x+1/2,-y,z+1/2", "-x+1/2,y,-z+1/2"], "0,0,0"),
    (54, "Pcca", "P", ["-x+1/2,-y,z", "-x,y,-z+1/2"], "0,0,0"),
    (55, "Pbam", "P", ["-x,-y,z", "-x+1/2,y+1/2,-z"], "0,0,0"),
    (56, "Pccn", "P", ["-x+1/2,-y+1/2,z", "-x,y+1/2,-z+1/2"], "0,0,0"),
    (57, "Pbcm", "P", ["-x,-y,z+1/2", "-x,y+1/2,-z+1/2"], "0,0,0"),
    (58, "Pnnm", "P", ["-x,-y,z", "-x+1/2,y+1/2,-z+1/2"], "0,0,0"),
    (59, "Pmmn", "P", ["-x,-y,z", "-x+1/2,y+1/2,-z"], "1/2,1/2,0"),
    (60, "Pbcn", "P", ["-x+1/2,-y+1/2,z+1/2", "-x,y,-z+1/2"], "0,0,0"),
    (61, "Pbca", "P", ["-x+1/2,-y,z+1/2", "-x,y+1/2,-z+1/2"], "0,0,0"),
    (62, "Pnma", "P", ["-x+1/2,-y,z+1/2", "-x,y+1/2,-z"], "0,0,0"),
    (63, "Cmcm", "C", ["-x,-y,z+1/2", "-x,y,-z+1/2"], "0,0,0"),
    (64, "Cmce", "C", ["-x,-y+1/2,z+1/2", "-x,y+1/2,-z+1/2"], "0,0,0"),
    (65, "Cmmm", "C", ["-x,-y,z", "-x,y,-z"], "0,0,0"),
    (66, "Cccm", "C", ["-x,-y,z", "-x,y,-z+1/2"], "0,0,0"),
    (67, "Cmme", "C", ["-x,-y+1/2,z", "-x,y+1/2,-z"], "0,0,0"),
    (68, "Ccce", "C", ["-x,-y,z", "-x,y,-z"], "1/2,0,1/2"),
    (69, "Fmmm", "F", ["-x,-y,z", "-x,y,-z"], "0,0,0"),
    (70, "Fddd", "F", ["-x,-y,z", "-x,y,-z"], "1/4,1/4,1/4"),
    (71, "Immm", "I", ["-x,-y,z", "-x,y,-z"], "0,0,0"),
    (72, "Ibam", "I", ["-x,-y,z", "-x+1/2,y+1/2,-z"], "0,0,0"),
    (73, "Ibca", "I", ["-x+1/2,-y,z+1/2", "-x,y+1/2,-z+1/2"], "0,0,0"),
    (74, "Imma", "I", ["-x,-y+1/2,z", "-x,y+1/2,-z"], "0,0,0"),
    # --- tetragonal 4 / -4 / 4/m ---
    (75, "P4", "P", ["-y,x,z"], None),
    (76, "P4_1", "P", ["-y,x,z+1/4"], None),
    (77, "P4_2", "P", ["-y,x,z+1/2"], None),
    (78, "P4_3", "P", ["-y,x,z+3/4"], None),
    (79, "I4", "I", ["-y,x,z"], None),
    (80, "I4_1", "I", ["-y,x+1/2,z+1/4"], None),
    (81, "P-4", "P", ["y,-x,-z"], None),
    (82, "I-4", "I", ["y,-x,-z"], None),
    (83, "P4/m", "P", ["-y,x,z"], "0,0,0"),
    (84, "P4_2/m", "P", ["-y,x,z+1/2"], "0,0,0"),
    (85, "P4/n", "P", ["-y,x,z"], "1/2,1/2,0"),
    (86, "P4_2/n", "P", ["-y,x,z+1/2"], "1/2,1/2,0"),
    (87, "I4/m", "I", ["-y,x,z"], "0,0,0"),
    (88, "I4_1/a", "I", ["-y,x+1/2,z+1/4"], "0,1/2,1/4"),
    # --- tetragonal 422 ---
    (89, "P422", "P", ["-y,x,z", "x,-y,-z"], None),
    (90, "P42_12", "P", ["-y+1/2,x+1/2,z", "x+1/2,-y+1/2,-z"], None),
    (91, "P4_122", "P", ["-y,x,z+1/4", "x,-y,-z"], None),
    (92, "P4_12_12", "P", ["-y+1/2,x+1/2,z+1/4", "y,x,-z"], None),
    (93, "P4_222", "P", ["-y,x,z+1/2", "x,-y,-z"], None),
    (94, "P4_22_12", "P", ["-y+1/2,x+1/2,z+1/2", "y,x,-z"], None),
    (95, "P4_322", "P", ["-y,x,z+3/4", "x,-y,-z"], None),
    (96, "P4_32_12", "P", ["-y+1/2,x+1/2,z+3/4", "y,x,-z"], None),
    (97, "I422", "I", ["-y,x,z", "x,-y,-z"], None),
    (98, "I4_122", "I", ["-y,x+1/2,z+1/4", "-y,-x,-z"], None),
    # --- tetragonal 4mm ---
    (99, "P4mm", "P", ["-y,x,z", "x,-y,z"], None),
    (100, "P4bm", "P", ["-y,x,z", "x+1/2,-y+1/2,z"], None),
    (101, "P4_2cm", "P", ["-y,x,z+1/2", "x,-y,z+1/2"], None),
    (102, "P4_2nm", "P", ["-y+1/2,x+1/2,z+1/2", "x+1/2,-y+1/2,z+1/2"], None),
    (103, "P4cc", "P", ["-y,x,z", "x,-y,z+1/2"], None),
    (104, "P4nc", "P", ["-y,x,z", "x+1/2,-y+1/2,z+1/2"], None),
    (105, "P4_2mc", "P", ["-y,x,z+1/2", "x,-y,z"], None),
    (106, "P4_2bc", "P", ["-y,x,z+1/2", "x+1/2,-y+1/2,z"], None),
    (107, "I4mm", "I", ["-y,x,z", "x,-y,z"], None),
    (108, "I4cm", "I", ["-y,x,z", "x,-y,z+1/2"], None),
    (109, "I4_1md", "I", ["-y,x+1/2,z+1/4", "x,-y,z"], None),
    (110, "I4_1cd", "I", ["-y,x+1/2,z+1/4", "x,-y,z+1/2"], None),
    # --- tetragonal -42m / -4m2 ---
    (111, "P-42m", "P", ["y,-x,-z", "x,-y,-z"], None),
    (112, "P-42c", "P", ["y,-x,-z", "x,-y,-z+1/2"], None),
    (113, "P-42_1m", "P", ["y,-x,-z", "x+1/2,-y+1/2,-z"], None),
    (114, "P-42_1c", "P", ["y,-x,-z", "x+1/2,-y+1/2,-z+1/2"], None),
    (115, "P-4m2", "P", ["y,-x,-z", "x,-y,z"], None),
    (116, "P-4c2", "P", ["y,-x,-z", "x,-y,z+1/2"], None),
    (117, "P-4b2", "P", ["y,-x,-z", "x+1/2,-y+1/2,z"], None),
    (118, "P-4n2", "P", ["y,-x,-z", "x+1/2,-y+1/2,z+1/2"], None),
    (119, "I-4m2", "I", ["y,-x,-z", "x,-y,z"], None),
    (120, "I-4c2", "I", ["y,-x,-z", "x,-y,z+1/2"], None),
    (121, "I-42m", "I", ["y,-x,-z", "x,-y,-z"], None),
    (122, "I-42d", "I", ["y,-x,-z", "-x+1/2,y,-z+3/4"], None),
    # --- tetragonal 4/mmm ---
    (123, "P4/mmm", "P", ["-y,x,z", "x,-y,-z"], "0,0,0"),
    (124, "P4/mcc", "P", ["-y,x,z", "x,-y,-z+1/2"], "0,0,0"),
    (125, "P4/nbm", "P", ["-y,x,z", "x,-y,-z"], "1/2,1/2,0"),
    (126, "P4/nnc", "P", ["-y,x,z", "x,-y,-z"], "1/2,1/2,1/2"),
    (127, "P4/mbm", "P", ["-y,x,z", "x+1/2,-y+1/2,-z"], "0,0,0"),
    (128, "P4/mnc", "P", ["-y,x,z", "x+1/2,-y+1/2,-z+1/2"], "0,0,0"),
    (129, "P4/nmm", "P", ["-y,x,z", "x+1/2,-y+1/2,-z"], "1/2,1/2,0"),
    (130, "P4/ncc", "P", ["-y,x,z", "x+1/2,-y+1/2,-z+1/2"], "1/2,1/2,0"),
    (131, "P4_2/mmc", "P", ["-y,x,z+1/2", "x,-y,-z"], "0,0,0"),
    (132, "P4_2/mcm", "P", ["-y,x,z+1/2", "x,-y,-z+1/2"], "0,0,0"),
    (133, "P4_2/nbc", "P", ["-y,x,z+1/2", "x,-y,-z"], "1/2,1/2,0"),
    (134, "P4_2/nnm", "P", ["-y,x,z+1/2", "x,-y,-z"], "1/2,1/2,1/2"),
    (135, "P4_2/mbc", "P", ["-y,x,z+1/2", "x+1/2,-y+1/2,-z"], "0,0,0"),
    (136, "P4_2/mnm", "P", ["-y+1/2,x+1/2,z+1/2", "x+1/2,-y+1/2,-z+1/2"], "0,0,0"),
    (137, "P4_2/nmc", "P", ["-y+1/2,x+1/2,z+1/2", "x+1/2,-y+1/2,-z+1/2"], "1/2,1/2,1/2"),
    (138, "P4_2/ncm", "P", ["-y+1/2,x+1/2,z+1/2", "x+1/2,-y+1/2,-z+1/2"], "1/2,1/2,0"),
    (139, "I4/mmm", "I", ["-y,x,z", "x,-y,-z"], "0,0,0"),
    (140, "I4/mcm", "I", ["-y,x,z", "x,-y,-z+1/2"], "0,0,0"),
    (141, "I4_1/amd", "I", ["-y,x+1/2,z+1/4", "-y,-x,-z"], "0,1/2,1/4"),
    (142, "I4_1/acd", "I", ["-y,x+1/2,z+1/4", "-y,-x,-z"], "0,1/2,3/4"),
    # --- trigonal ---
    (143, "P3", "P", ["-y,x-y,z"], None),
    (144, "P3_1", "P", ["-y,x-y,z+1/3"], None),
    (145, "P3_2", "P", ["-y,x-y,z+2/3"], None),
    (146, "R3", "R", ["-y,x-y,z"], None),
    (147, "P-3", "P", ["-y,x-y,z"], "0,0,0"),
    (148, "R-3", "R", ["-y,x-y,z"], "0,0,0"),
    (149, "P312", "P", ["-y,x-y,z", "-y,-x,-z"], None),
    (150, "P321", "P", ["-y,x-y,z", "y,x,-z"], None),
    (151, "P3_112", "P", ["-y,x-y,z+1/3", "-y,-x,-z+2/3"], None),
    (152, "P3_121", "P", ["-y,x-y,z+1/3", "y,x,-z"], None),
    (153, "P3_212", "P", ["-y,x-y,z+2/3", "-y,-x,-z+1/3"], None),
    (154, "P3_221", "P", ["-y,x-y,z+2/3", "y,x,-z"], None),
    (155, "R32", "R", ["-y,x-y,z", "y,x,-z"], None),
    (156, "P3m1", "P", ["-y,x-y,z", "-y,-x,z"], None),
    (157, "P31m", "P", ["-y,x-y,z", "y,x,z"], None),
    (158, "P3c1", "P", ["-y,x-y,z", "-y,-x,z+1/2"], None),
    (159, "P31c", "P", ["-y,x-y,z", "y,x,z+1/2"], None),
    (160, "R3m", "R", ["-y,x-y,z", "-y,-x,z"], None),
    (161, "R3c", "R", ["-y,x-y,z", "-y,-x,z+1/2"], None),
    (162, "P-31m", "P", ["-y,x-y,z", "-y,-x,-z"], "0,0,0"),
    (163, "P-31c", "P", ["-y,x-y,z", "-y,-x,-z+1/2"], "0,0,0"),
    (164, "P-3m1", "P", ["-y,x-y,z", "y,x,-z"], "0,0,0"),
    (165, "P-3c1", "P", ["-y,x-y,z", "y,x,-z+1/2"], "0,0,0"),
    (166, "R-3m", "R", ["-y,x-y,z", "y,x,-z"], "0,0,0"),
    (167, "R-3c", "R", ["-y,x-y,z", "y,x,-z+1/2"], "0,0,0"),
    # --- hexagonal ---
    (168, "P6", "P", ["x-y,x,z"], None),
    (169, "P6_1", "P", ["x-y,x,z+1/6"], None),
    (170, "P6_5", "P", ["x-y,x,z+5/6"], None),
    (171, "P6_2", "P", ["x-y,x,z+1/3"], None),
    (172, "P6_4", "P", ["x-y,x,z+2/3"], None),
    (173, "P6_3", "P", ["x-y,x,z+1/2"], None),
    (174, "P-6", "P", ["-x+y,-x,-z"], None),
    (175, "P6/m", "P", ["x-y,x,z"], "0,0,0"),
    (176, "P6_3/m", "P", ["x-y,x,z+1/2"], "0,0,0"),
    (177, "P622", "P", ["x-y,x,z", "y,x,-z"], None),
    (178, "P6_122", "P", ["x-y,x,z+1/6", "x-y,-y,-z"], None),
    (179, "P6_522", "P", ["x-y,x,z+5/6", "x-y,-y,-z"], None),
    (180, "P6_222", "P", ["x-y,x,z+1/3", "x-y,-y,-z"], None),
    (181, "P6_422", "P", ["x-y,x,z+2/3", "x-y,-y,-z"], None),
    (182, "P6_322", "P", ["x-y,x,z+1/2", "x-y,-y,-z"], None),
    (183, "P6mm", "P", ["x-y,x,z", "y,x,z"], None),
    (184, "P6cc", "P", ["x-y,x,z", "y,x,z+1/2"], None),
    (185, "P6_3cm", "P", ["x-y,x,z+1/2", "-x+y,y,z+1/2"], None),
    (186, "P6_3mc", "P", ["x-y,x,z+1/2", "-x+y,y,z"], None),
    (187, "P-6m2", "P", ["-x+y,-x,-z", "-x+y,y,z"], None),
    (188, "P-6c2", "P", ["-x+y,-x,-z", "-x+y,y,z+1/2"], None),
    (189, "P-62m", "P", ["-x+y,-x,-z", "x-y,-y,-z"], None),
    (190, "P-62c", "P", ["-x+y,-x,-z", "x-y,-y,-z+1/2"], None),
    (191, "P6/mmm", "P", ["x-y,x,z", "x-y,-y,-z"], "0,0,0"),
    (192, "P6/mcc", "P", ["x-y,x,z", "x-y,-y,-z+1/2"], "0,0,0"),
    (193, "P6_3/mcm", "P", ["x-y,x,z+1/2", "x-y,-y,-z+1/2"], "0,0,0"),
    (194, "P6_3/mmc", "P", ["x-y,x,z+1/2", "x-y,-y,-z"], "0,0,0"),
    # --- cubic ---
    (195, "P23", "P", ["-x,-y,z", "z,x,y"], None),
    (196, "F23", "F", ["-x,-y,z", "z,x,y"], None),
    (197, "I23", "I", ["-x,-y,z", "z,x,y"], None),
    (198, "P2_13", "P", ["-x+1/2,-y,z+1/2", "z,x,y"], None),
    (199, "I2_13", "I", ["-x+1/2,-y,z+1/2", "z,x,y"], None),
    (200, "Pm-3", "P", ["-x,-y,z", "z,x,y"], "0,0,0"),
    (201, "Pn-3", "P", ["-x,-y,z", "z,x,y"], "1/2,1/2,1/2"),
    (202, "Fm-3", "F", ["-x,-y,z", "z,x,y"], "0,0,0"),
    (203, "Fd-3", "F", ["-x,-y,z", "z,x,y"], "1/4,1/4,1/4"),
    (204, "Im-3", "I", ["-x,-y,z", "z,x,y"], "0,0,0"),
    (205, "Pa-3", "P", ["-x+1/2,-y,z+1/2", "z,x,y"], "0,0,0"),
    (206, "Ia-3", "I", ["-x+1/2,-y,z+1/2", "z,x,y"], "0,0,0"),
    (207, "P432", "P", ["-y,x,z", "z,x,y"], None),
    (208, "P4_232", "P", ["-y+1/2,x+1/2,z+1/2", "z,x,y"], None),
    (209, "F432", "F", ["-y,x,z", "z,x,y"], None),
    (210, "F4_132", "F", ["-y+1/4,x+1/4,z+3/4", "z,x,y"], None),
    (211, "I432", "I", ["-y,x,z", "z,x,y"], None),
    (212, "P4_332", "P", ["-y+3/4,x+1/4,z+3/4", "z,x,y"], None),
    (213, "P4_132", "P", ["-y+1/4,x+3/4,z+1/4", "z,x,y"], None),
    (214, "I4_132", "I", ["-y+1/4,x+3/4,z+1/4", "z,x,y"], None),
    (215, "P-43m", "P", ["y,-x,-z", "z,x,y"], None),
    (216, "F-43m", "F", ["y,-x,-z", "z,x,y"], None),
    (217, "I-43m", "I", ["y,-x,-z", "z,x,y"], None),
    (218, "P-43n", "P", ["y+1/2,-x+1/2,-z+1/2", "z,x,y"], None),
    (219, "F-43c", "F", ["y+1/2,-x+1/2,-z+1/2", "z,x,y"], None),
    (220, "I-43d", "I", ["y+1/4,-x+3/4,-z+1/4", "z,x,y"], None),
    (221, "Pm-3m", "P", ["-y,x,z", "z,x,y"], "0,0,0"),
    (222, "Pn-3n", "P", ["-y,x,z", "z,x,y"], "1/2,1/2,1/2"),
    (223, "Pm-3n", "P", ["-y+1/2,x+1/2,z+1/2", "z,x,y"], "0,0,0"),
    (224, "Pn-3m", "P", ["-y+1/2,x+1/2,z+1/2", "z,x,y"], "1/2,1/2,1/2"),
    (225, "Fm-3m", "F", ["-y,x,z", "z,x,y"], "0,0,0"),
    (226, "Fm-3c", "F", ["-y,x,z", "z,x,y"], "1/2,1/2,1/2"),
    (227, "Fd-3m", "F", ["y,-x,-z", "z,x,y"], "1/4,1/4,1/4"),
    (228, "Fd-3c", "F", ["y+1/2,-x+1/2,-z+1/2", "z,x,y"], "1/4,1/4,1/4"),
    (229, "Im-3m", "I", ["-y,x,z", "z,x,y"], "0,0,0"),
    (230, "Ia-3d", "I", ["-y+1/4,x+3/4,z+1/4", "z,x,y"], "0,0,0"),
]

RHOMBOHEDRAL = {146, 148, 155, 160, 161, 166, 167}

# Golden multiplicity multisets (sorted), used as hard assertions.
GOLDEN_SIGNATURES = {
    1: [1],
    2: [1] * 8 + [2],
    3: [1, 1, 1, 1, 2],
    4: [2],
    5: [2, 2, 4],
    6: [1, 1, 2],
    7: [2],
    8: [2, 4],
    9: [4],
    10: [1] * 8 + [2] * 6 + [4],
    14: [2, 2, 2, 2, 4],
    15: [4, 4, 4, 4, 4, 8],
    16: [1] * 8 + [2] * 12 + [4],
    47: [1] * 8 + [2] * 12 + [4] * 6 + [8],
    62: [4, 4, 4, 8],
    63: [4, 4, 4, 8, 8, 8, 8, 16],
    88: [4, 4, 8, 8, 8, 16],
    136: [2, 2, 4, 4, 4, 4, 4, 8, 8, 8, 16],
    139: [2, 2, 4, 4, 4, 8, 8, 8, 8, 8, 16, 16, 16, 16, 32],
    141: [4, 4, 8, 8, 8, 16, 16, 16, 32],
    152: [3, 3, 6],
    166: [3, 3, 6, 9, 9, 18, 18, 18, 36],
    191: [1, 1, 2, 2, 2, 3, 3, 4, 6, 6, 6, 6, 6, 12, 12, 12, 12, 24],
    194: [2, 2, 2, 2, 4, 4, 6, 6, 12, 12, 12, 24],
    198: [4, 12],
    205: [4, 4, 8, 24],
    213: [4, 4, 8, 12, 24],
    220: [12, 12, 16, 24, 48],
    221: [1, 1, 3, 3, 6, 6, 8, 12, 12, 12, 24, 24, 24, 48],
    225: [4, 4, 8, 24, 24, 32, 48, 48, 48, 96, 96, 192],
    227: [8, 8, 16, 16, 32, 48, 96, 96, 192],
    229: [2, 6, 8, 12, 12, 16, 24, 24, 48, 48, 48, 96],
    230: [16, 16, 24, 24, 32, 48, 48, 96],
}


def point_group_order(symbol: str) -> int:
    body = symbol[1:]  # strip centering letter
    # collapse screw subscripts: "4_1" -> "4"
    out = []
    i = 0
    while i < len(body):
        if body[i] == "_":
            i += 2
            continue
        out.append(body[i])
        i += 1
    pg = "".join(out)
    for glide in "abcden":
        pg = pg.replace(glide, "m")
    # trigonal/hexagonal placeholder '1' (P3m1, P31m, P-3m1 ...) is dropped
    # unless the symbol is itself the identity/inversion group
    if pg not in ("1", "-1"):
        stripped = pg.replace("1", "")
        if stripped in POINT_GROUP_ORDER:
            pg = stripped
    return POINT_GROUP_ORDER[pg]


def family_of(number: int) -> str:
    if number <= 2:
        return "triclinic"
    if number <= 15:
        return "monoclinic"
    if number <= 74:
        return "orthorhombic"
    if number <= 142:
        return "tetragonal"
    if number in RHOMBOHEDRAL:
        return "rhombohedral"
    if number <= 194:
        return "trigonal-hexagonal"
    return "cubic"


# ---------------------------------------------------------------------------
# Exact linear algebra helpers
# ---------------------------------------------------------------------------


def solve_affine(A, b):
    """Solve A x = b exactly. Returns (x0, basis) or None if inconsistent.

    x0 has free variables set to 0; basis is a list of nullspace vectors.
    """
    M = [[A[i][j] for j in range(3)] + [b[i]] for i in range(3)]
    pivots = []
    row = 0
    for col in range(3):
        piv = next((r for r in range(row, 3) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = 1 / M[row][col]
        M[row] = [e * inv for e in M[row]]
        for r in range(3):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[row])]
        pivots.append(col)
        row += 1
    for r in range(row, 3):
        if M[r][3] != 0:
            return None
    x0 = [F(0)] * 3
    for r, col in enumerate(pivots):
        x0[col] = M[r][3]
    free = [c for c in range(3) if c not in pivots]
    basis = []
    for fc in free:
        v = [F(0)] * 3
        v[fc] = F(1)
        for r, col in enumerate(pivots):
            v[col] = -M[r][fc]
        basis.append(v)
    return x0, basis


def rref_basis(vectors):
    """Reduced row echelon basis (pivot 1, pivots cleared) of a span."""
    rows = [list(v) for v in vectors if any(e != 0 for e in v)]
    basis = []
    for col in range(3):
        piv = next((r for r in rows if r[col] != 0 and all(
            r[c] == 0 for c in range(col))), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [e / piv[col] for e in piv]
        rows = [[a - r[col] * b for a, b in zip(r, piv)] for r in rows]
        basis = [[a - b0[col] * b for a, b in zip(b0, piv)] for b0 in basis]
        basis.append(piv)
    return basis


class Subspace:
    """Affine subspace of the 3-torus: x0 + span(basis), taken mod 1."""

    __slots__ = ("x0", "basis")

    def __init__(self, x0, basis):
        basis = rref_basis(basis)
        x0 = list(x0)
        for row in basis:
            piv = next(c for c in range(3) if row[c] != 0)
            coeff = x0[piv]
            x0 = [a - coeff * b for a, b in zip(x0, row)]
        self.x0 = tuple(t % 1 for t in x0)
        self.basis = tuple(tuple(r) for r in basis)

    @property
    def dim(self):
        return len(self.basis)

    def pivots(self):
        return [next(c for c in range(3) if row[c] != 0)
                for row in self.basis]

    def contains_point(self, p) -> bool:
        """Is p (mod 1) on this subspace?

        Wrapping a pivot coordinate by an integer moves the non-pivot
        coordinates by the (rational) basis entries; denominators divide 12,
        so scanning 12 wraps per pivot is exhaustive.
        """
        delta = [a - b for a, b in zip(p, self.x0)]
        pivots = self.pivots()
        nonpiv = [c for c in range(3) if c not in pivots]
        for wraps in itertools.product(range(12), repeat=len(pivots)):
            s = [delta[pv] - n for pv, n in zip(pivots, wraps)]
            ok = True
            for c in nonpiv:
                resid = delta[c] - sum(
                    sj * row[c] for sj, row in zip(s, self.basis))
                if resid.denominator != 1:
                    ok = False
                    break
            if ok:
                return True
        return False

    def same_as(self, other) -> bool:
        return self.basis == other.basis and (
            self.x0 == other.x0 or self.contains_point(other.x0))

    def generic_point(self):
        p = list(self.x0)
        for u, row in zip(GENERIC, self.basis):
            p = [a + u * e for a, e in zip(p, row)]
        return tuple(t % 1 for t in p)

    def transformed(self, op: AffineForm) -> "Subspace":
        x0 = tuple(t % 1 for t in op.apply(self.x0))
        basis = [
            [sum(op.matrix[i][j] * row[j] for j in range(3)) for i in range(3)]
            for row in self.basis
        ]
        return Subspace(x0, basis)


def dedupe_subspaces(spaces):
    out = []
    for s in spaces:
        if not any(s.same_as(t) for t in out if t.basis == s.basis):
            out.append(s)
    return out


def fixed_components(op: AffineForm):
    """Solution components of op(x) == x (mod 1) inside the unit cell."""
    A = [[op.matrix[i][j] - (1 if i == j else 0) for j in range(3)]
         for i in range(3)]
    v = op.translation
    comps = []
    ranges = []
    for i in range(3):
        lo = sum(min(a, 0) for a in A[i])
        hi = sum(max(a, 0) for a in A[i])
        # need b_i = -v_i + n_i in [lo, hi]
        ranges.append(range(math.ceil(lo + v[i]), math.floor(hi + v[i]) + 1))
    for n in itertools.product(*ranges):
        b = [-v[i] + n[i] for i in range(3)]
        sol = solve_affine(A, b)
        if sol is None:
            continue
        x0, basis = sol
        if len(basis) == 3:
            continue  # identity: fixes everything, not a special subspace
        comps.append(Subspace(x0, basis))
    return dedupe_subspaces(comps)


def intersect(s1: Subspace, s2: Subspace):
    """All distinct components of (s1 intersect s2) in the torus.

    The shift range covers every relative lattice translate that can meet
    the unit cell for conventional-setting directions (entries <= 2); the
    global 1731 checksum and the golden signatures guard the bound.
    """
    k1, k2 = s1.dim, s2.dim
    out = []
    for n in itertools.product((-3, -2, -1, 0, 1, 2, 3), repeat=3):
        # x0_1 + B1^T s = x0_2 + B2^T t + n  -> solve for (s, t)
        nvar = k1 + k2
        rows = []
        rhs = []
        for i in range(3):
            row = [s1.basis[r][i] for r in range(k1)] + [
                -s2.basis[r][i] for r in range(k2)]
            rows.append(row)
            rhs.append(s2.x0[i] + n[i] - s1.x0[i])
        sol = _solve_general(rows, rhs, nvar)
        if sol is None:
            continue
        u0, nullb = sol
        x0 = [s1.x0[i] + sum(s1.basis[r][i] * u0[r] for r in range(k1))
              for i in range(3)]
        basis = []
        for nv in nullb:
            vec = [sum(s1.basis[r][i] * nv[r] for r in range(k1))
                   for i in range(3)]
            if any(e != 0 for e in vec):
                basis.append(vec)
        out.append(Subspace(x0, basis))
    return dedupe_subspaces(out)


def _solve_general(rows, rhs, nvar):
    """Gaussian elimination for an underdetermined exact system."""
    M = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(nvar):
        piv = next((r for r in range(row, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = 1 / M[row][col]
        M[row] = [e * inv for e in M[row]]
        for r in range(len(M)):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[row])]
        pivots.append(col)
        row += 1
        if row == len(M):
            break
    for r in range(row, len(M)):
        if M[r][nvar] != 0:
            return None
    u0 = [F(0)] * nvar
    for r, col in enumerate(pivots):
        u0[col] = M[r][nvar]
    free = [c for c in range(nvar) if c not in pivots]
    nullb = []
    for fc in free:
        v = [F(0)] * nvar
        v[fc] = F(1)
        for r, col in enumerate(pivots):
            v[col] = -M[r][fc]
        nullb.append(v)
    return u0, nullb


# ---------------------------------------------------------------------------
# Group construction
# ---------------------------------------------------------------------------


def build_ops(gens, centering, inv_w):
    forms = [parse_triplet(g) for g in gens]
    if inv_w is not None:
        w = tuple(F(p) for p in inv_w.split(","))
        inv = AffineForm.from_parts(
            [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], w)
        forms.append(inv)
        if any(t != 0 for t in w):
            # move the origin to the inversion centre at w/2
            shift = tuple(t / 2 for t in w)
            moved = []
            for f in forms:
                t = tuple(
                    (f.translation[i]
                     + sum(f.matrix[i][j] * shift[j] for j in range(3))
                     - shift[i]) % 1
                    for i in range(3))
                moved.append(AffineForm(f.matrix, t))
            forms = moved
    for c in CENTERINGS[centering]:
        forms.append(AffineForm.from_parts(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]], c))
    ident = AffineForm.identity()
    ops = {ident: True}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in forms:
                c = g.compose(a)
                if c not in ops:
                    ops[c] = True
                    nxt.append(c)
        frontier = nxt
        if len(ops) > 200:
            raise RuntimeError("closure exploded past 200 operations")
    ops = list(ops)
    allowed_trans = {tuple(F(0) for _ in range(3))} | {
        tuple(F(x) for x in c) for c in CENTERINGS[centering]}
    for op in ops:
        for row in op.matrix:
            for e in row:
                if abs(e) > 1 or e.denominator != 1:
                    raise RuntimeError(f"non-crystallographic matrix {op}")
        if op.matrix == AffineForm.identity().matrix:
            if op.translation not in allowed_trans:
                raise RuntimeError(
                    f"spurious pure translation {op.translation}")
    return ops


def wyckoff_positions(ops):
    """Derive Wyckoff positions: list of dicts with subspace/mult/letter."""
    elementary = []
    ident = AffineForm.identity()
    for op in ops:
        if op == ident:
            continue
        elementary.extend(fixed_components(op))
    elementary = dedupe_subspaces(elementary)

    # close under intersection with elementary subspaces
    all_spaces = list(elementary)
    frontier = list(elementary)
    while frontier:
        new = []
        for s in frontier:
            for e in elementary:
                if s.dim == 0:
                    break
                if e.dim == 0 or e.same_as(s):
                    continue
                for cand in intersect(s, e):
                    if cand.dim < s.dim and not any(
                            cand.same_as(t) for t in all_spaces
                            if t.basis == cand.basis):
                        all_spaces.append(cand)
                        new.append(cand)
        frontier = new

    # orbit classification under the group action
    classes = []
    seen = [False] * len(all_spaces)
    for i, s in enumerate(all_spaces):
        if seen[i]:
            continue
        orbit = [s]
        seen[i] = True
        for op in ops:
            ts = s.transformed(op)
            for j, t in enumerate(all_spaces):
                if not seen[j] and t.basis == ts.basis and t.same_as(ts):
                    seen[j] = True
                    orbit.append(t)
        classes.append(orbit)

    def rep_key(s: Subspace):
        # an integer-coefficient parametric form is mandatory: the unit
        # parameter interval then charts the whole torus component, so the
        # site symmetrizer is total and idempotent. After that requirement,
        # conventional-table style: uniform points (1/2,1/2,1/2) beat mixed
        # ones, free variables sit in the earliest slots with positive ties
        # ("x,x,z" over "x,-x,z"), then lexicographic position.
        fractional = any(
            e.denominator != 1 for row in s.basis for e in row)
        values = [s.x0[c] for c in range(3) if c not in s.pivots()]
        uniform = 0 if len(set(values)) <= 1 else 1
        neg_basis = tuple(tuple(-e for e in row) for row in s.basis)
        return (1 if fractional else 0, uniform, neg_basis, s.x0)

    n_ops = len(ops)
    positions = []
    for orbit in classes:
        rep = min(orbit, key=rep_key)
        if any(e.denominator != 1 for row in rep.basis for e in row):
            raise RuntimeError(
                "no integer-coefficient representative in class "
                f"{[format_triplet(site_form(s)) for s in orbit]}")
        p = rep.generic_point()
        stab = [op for op in ops
                if tuple(t % 1 for t in op.apply(p)) == p]
        images = {}
        for op in ops:
            img = tuple(t % 1 for t in op.apply(p))
            if img not in images:
                images[img] = op
        mult = len(images)
        assert mult * len(stab) == n_ops, "orbit-stabilizer mismatch"
        positions.append({
            "subspace": rep,
            "dof": rep.dim,
            "mult": mult,
            "gens": list(images.values()),
        })

    # general position
    p = tuple(t % 1 for t in GENERIC)
    images = {}
    for op in ops:
        img = tuple(t % 1 for t in op.apply(p))
        if img not in images:
            images[img] = op
    assert len(images) == n_ops, "general position must be regular"
    gen_sub = Subspace(
        (F(0), F(0), F(0)),
        [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    positions.append({
        "subspace": gen_sub, "dof": 3, "mult": n_ops,
        "gens": list(images.values()),
    })

    positions.sort(key=lambda w: (
        w["mult"], w["dof"], rep_key(w["subspace"])))
    letters = "abcdefghijklmnopqrstuvwxyzA"
    assert len(positions) <= len(letters), "more positions than letters"
    for letter, pos in zip(letters, positions):
        pos["letter"] = letter
    return positions


def site_form(sub: Subspace) -> AffineForm:
    """Parametric site expression: free variable per pivot slot."""
    matrix = [[F(0)] * 3 for _ in range(3)]
    for row in sub.basis:
        piv = next(c for c in range(3) if row[c] != 0)
        for i in range(3):
            matrix[i][piv] = row[i]
    return AffineForm(tuple(tuple(r) for r in matrix), sub.x0)


def verify_numeric(positions, ops):
    """Float re-check: orbit generators reproduce multiplicity points."""
    import random

    rng = random.Random(7)
    for pos in positions:
        form = site_form(pos["subspace"])
        u = [rng.random() for _ in range(3)]
        p = tuple(float(sum(form.matrix[i][j] * u[j] for j in range(3))
                        + form.translation[i]) % 1.0 for i in range(3))
        pts = []
        for g in pos["gens"]:
            img = [float(x) % 1.0 for x in g.apply(p)]
            pts.append(img)
        uniq = []
        for q in pts:
            if not any(all(abs((a - b + 0.5) % 1 - 0.5) < 1e-9
                           for a, b in zip(q, r)) for r in uniq):
                uniq.append(q)
        if len(uniq) != pos["mult"]:
            raise RuntimeError(
                f"orbit oracle failed: {pos['letter']} expected "
                f"{pos['mult']}, got {len(uniq)}")


def main():
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parents[1]
        / "src" / "symadit" / "data" / "sg_catalog.txt")
    lines = []
    total_wy = 0
    t0 = time.time()
    for number, symbol, cent, gens, inv_w in GROUPS:
        ops = build_ops(gens, cent, inv_w)
        expect = point_group_order(symbol) * (len(CENTERINGS[cent]) + 1)
        if len(ops) != expect:
            raise RuntimeError(
                f"group {number} {symbol}: {len(ops)} ops, expected {expect}")
        positions = wyckoff_positions(ops)
        verify_numeric(positions, ops)
        sig = sorted(p["mult"] for p in positions)
        if number in GOLDEN_SIGNATURES:
            if sig != sorted(GOLDEN_SIGNATURES[number]):
                raise RuntimeError(
                    f"group {number} {symbol}: signature {sig} != "
                    f"{sorted(GOLDEN_SIGNATURES[number])}")
        if number == 225:
            by_letter = {p["letter"]: p for p in positions}
            if format_triplet(site_form(by_letter["a"]["subspace"])) != "0,0,0":
                raise RuntimeError("225 a must sit at the origin")
            if format_triplet(site_form(by_letter["b"]["subspace"])) != \
                    "1/2,1/2,1/2":
                raise RuntimeError("225 b must sit at the cell centre")
        total_wy += len(positions)
        label = symbol.replace("_", "")
        lines.append(f"G {number} {label} {family_of(number)}")
        for op in ops:
            lines.append(f"OP {format_triplet(op)}")
        for pos in positions:
            gens_txt = ";".join(format_triplet(g) for g in pos["gens"])
            lines.append(
                f"WY {pos['letter']} {pos['mult']} "
                f"{format_triplet(site_form(pos['subspace']))} | {gens_txt}")
        print(f"group {number:3d} {label:10s} ops={len(ops):3d} "
              f"wyckoff={len(positions):2d} total={total_wy}", flush=True)

    if total_wy != 1731:
        raise RuntimeError(f"total Wyckoff positions {total_wy} != 1731")

    header = f"SGCATALOG v1 groups=230 wyckoff={total_wy}"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
    print(f"wrote {out_path} ({out_path.stat().st_size} bytes) "
          f"in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
