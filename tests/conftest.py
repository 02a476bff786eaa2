import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# the reference tables that tools/derive_compositions.py also reads
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
